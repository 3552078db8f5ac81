package am

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

func testJob() *workload.Job {
	j := &workload.Job{ID: 1, Weight: 1}
	j.Stages = []*workload.Stage{{Name: "s", Tasks: []*workload.Task{{
		ID:   workload.TaskID{Job: 1, Stage: 0, Index: 0},
		Peak: resources.New(1, 1, 0, 0, 0, 0),
		Work: workload.Work{CPUSeconds: 1},
	}}}}
	return j
}

// fakeRM runs a scripted resource manager: it accepts one connection and
// responds to each message with the next reply from the script.
func fakeRM(t *testing.T, replies []*wire.Message) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		framer := wire.NewServerFramer()
		i := 0
		for {
			if _, err := framer.Read(conn); err != nil {
				return
			}
			reply := replies[i]
			if i < len(replies)-1 {
				i++ // keep answering with the final scripted reply
			}
			if err := framer.Write(conn, reply); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

func TestRunHappyPath(t *testing.T) {
	addr := fakeRM(t, []*wire.Message{
		{Type: wire.TypeAMReply, AMReply: &wire.AMReply{Total: 1}},                                            // submit ack
		{Type: wire.TypeAMReply, AMReply: &wire.AMReply{Done: 0, Total: 1}},                                   // first poll
		{Type: wire.TypeAMReply, AMReply: &wire.AMReply{Done: 1, Total: 1, Finished: true, FinishedAt: 12.5}}, // done
	})
	res, err := Run(context.Background(), Config{RMAddr: addr, Job: testJob(), Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinishedAt != 12.5 || res.Wall <= 0 {
		t.Errorf("result = %+v", res)
	}
}

func TestRunSubmitRejected(t *testing.T) {
	addr := fakeRM(t, []*wire.Message{{Type: wire.TypeError, Error: "duplicate job"}})
	_, err := Run(context.Background(), Config{RMAddr: addr, Job: testJob(), Poll: 5 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "duplicate job") {
		t.Errorf("err = %v, want rejection", err)
	}
}

func TestRunPollError(t *testing.T) {
	addr := fakeRM(t, []*wire.Message{
		{Type: wire.TypeAMReply, AMReply: &wire.AMReply{Total: 1}},
		{Type: wire.TypeError, Error: "unknown job 1"},
	})
	_, err := Run(context.Background(), Config{RMAddr: addr, Job: testJob(), Poll: 5 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Errorf("err = %v, want rm error", err)
	}
}

func TestRunCanceledWhilePolling(t *testing.T) {
	// RM acks the submission then goes silent: Run must exit on cancel.
	addr := fakeRM(t, []*wire.Message{
		{Type: wire.TypeAMReply, AMReply: &wire.AMReply{Total: 1}},
		{Type: wire.TypeAMReply, AMReply: &wire.AMReply{Total: 1}},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, Config{RMAddr: addr, Job: testJob(), Poll: 10 * time.Millisecond})
	if err != context.DeadlineExceeded {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

func TestRunNilJob(t *testing.T) {
	if _, err := Run(context.Background(), Config{RMAddr: "127.0.0.1:1"}); err == nil {
		t.Error("nil job accepted")
	}
}

func TestRunDialFailure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := Run(ctx, Config{RMAddr: "127.0.0.1:1", Job: testJob()}); err == nil {
		t.Error("dial to dead address succeeded")
	}
}
