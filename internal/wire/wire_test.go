package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []*Message{
		{Type: TypeRegisterNM, RegisterNM: &RegisterNM{NodeID: 3, Capacity: resources.New(16, 32, 200, 200, 1000, 1000)}},
		beatFrame(NMHeartbeat{
			NodeID:    3,
			Used:      resources.New(1, 2, 0, 0, 0, 0),
			Completed: []TaskCompletion{{Task: workload.TaskID{Job: 1, Stage: 0, Index: 2}, Usage: resources.New(1, 1, 0, 0, 0, 0), Duration: 12.5}},
		}),
		{Type: TypeNMReply, NMReply: &NMReply{Launch: []TaskLaunch{{
			Task:   workload.TaskID{Job: 1, Stage: 0, Index: 5},
			Demand: resources.New(2, 4, 10, 10, 0, 0), Duration: 30,
		}}}},
		{Type: TypeSubmitJob, SubmitJob: &SubmitJob{Job: &workload.Job{ID: 1, Name: "j", Weight: 1}, Tenant: "acme"}},
		{Type: TypeAMHeartbeat, AMHeartbeat: &AMHeartbeat{JobID: 1}},
		{Type: TypeAMReply, AMReply: &AMReply{Done: 3, Total: 10}},
		{Type: TypeSubmitReject, SubmitReject: &SubmitReject{Code: RejectRateLimited, Reason: "over rate", RetryAfter: 0.25}},
		{Type: TypeSubmitBatch, SubmitBatch: &SubmitBatch{Tenant: "acme", Jobs: []*workload.Job{{ID: 2, Weight: 1}}}},
		{Type: TypeSubmitBatchReply, SubmitBatchReply: &SubmitBatchReply{Results: []SubmitResult{
			{JobID: 2},
			{JobID: 3, Reject: &SubmitReject{Code: RejectShed, Reason: "overloaded", RetryAfter: 1.5}},
		}}},
		{Type: TypeError, Error: "boom"},
	}
	var buf bytes.Buffer
	f := NewFramer(CodecJSON)
	for _, m := range msgs {
		if err := f.Write(&buf, m); err != nil {
			t.Fatalf("Write(%s): %v", m.Type, err)
		}
	}
	for _, want := range msgs {
		got, err := f.Read(&buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if got.Type != want.Type {
			t.Fatalf("type = %q, want %q", got.Type, want.Type)
		}
	}
	if _, err := f.Read(&buf); err != io.EOF {
		t.Errorf("after drain: err = %v, want EOF", err)
	}
}

func TestPayloadFidelity(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{Type: TypeNMReply, NMReply: &NMReply{Launch: []TaskLaunch{{
		Task:   workload.TaskID{Job: 7, Stage: 1, Index: 9},
		Demand: resources.New(0.5, 8, 40, 20, 300, 100), Duration: 42.5,
	}}}}
	f := NewFramer(CodecJSON)
	if err := f.Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := f.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	l := out.NMReply.Launch[0]
	if l.Task != (workload.TaskID{Job: 7, Stage: 1, Index: 9}) || l.Demand != in.NMReply.Launch[0].Demand || l.Duration != 42.5 {
		t.Errorf("payload mangled: %+v", l)
	}
}

func TestRejectsOversizedFrame(t *testing.T) {
	if _, err := NewFramer(CodecJSON).Read(bytes.NewReader(frame(MaxFrame+1, nil))); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestRejectsGarbageJSON(t *testing.T) {
	body := []byte("{not json")
	if _, err := NewFramer(CodecJSON).Read(bytes.NewReader(frame(uint32(len(body)), body))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	f := NewFramer(CodecJSON)
	if err := f.Write(&buf, &Message{Type: TypeAMHeartbeat, AMHeartbeat: &AMHeartbeat{JobID: 1}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := f.Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		f := NewServerFramer()
		m, err := f.Read(conn)
		if err != nil {
			done <- err
			return
		}
		done <- f.Write(conn, &Message{Type: TypeAMReply, AMReply: &AMReply{Total: m.AMHeartbeat.JobID, Finished: true}})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f := NewFramer(CodecJSON)
	if err := f.Write(conn, &Message{Type: TypeAMHeartbeat, AMHeartbeat: &AMHeartbeat{JobID: 5}}); err != nil {
		t.Fatal(err)
	}
	reply, err := f.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.AMReply == nil || reply.AMReply.Total != 5 || !reply.AMReply.Finished {
		t.Errorf("reply = %+v", reply)
	}
	if err := <-done; err != nil {
		t.Errorf("server: %v", err)
	}
}

func TestBigJobFrame(t *testing.T) {
	j := &workload.Job{ID: 1, Weight: 1}
	st := &workload.Stage{Name: "big"}
	for i := 0; i < 5000; i++ {
		st.Tasks = append(st.Tasks, &workload.Task{
			ID:   workload.TaskID{Job: 1, Stage: 0, Index: i},
			Peak: resources.New(1, 2, 3, 4, 5, 6),
			Work: workload.Work{CPUSeconds: 10},
		})
	}
	j.Stages = []*workload.Stage{st}
	var buf bytes.Buffer
	f := NewFramer(CodecJSON)
	if err := f.Write(&buf, &Message{Type: TypeSubmitJob, SubmitJob: &SubmitJob{Job: j}}); err != nil {
		t.Fatal(err)
	}
	out, err := f.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.SubmitJob.Job.NumTasks() != 5000 {
		t.Errorf("tasks = %d", out.SubmitJob.Job.NumTasks())
	}
}

func TestWriteRejectsOversizeFrame(t *testing.T) {
	// An Error payload of MaxFrame bytes marshals past the limit once
	// JSON framing is added. Write must refuse it with ErrFrameTooLarge
	// and emit nothing — a partial frame would desynchronize the stream.
	m := &Message{Type: TypeError, Error: strings.Repeat("x", MaxFrame)}
	var buf bytes.Buffer
	err := NewFramer(CodecJSON).Write(&buf, m)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Write err = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Errorf("Write emitted %d bytes alongside the error", buf.Len())
	}
}

func TestReadRejectsOversizeHeader(t *testing.T) {
	// A header announcing MaxFrame+1 bytes must be refused before any
	// allocation or body read.
	_, err := NewFramer(CodecJSON).Read(bytes.NewReader(frame(MaxFrame+1, nil)))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Read err = %v, want ErrFrameTooLarge", err)
	}
}

func TestSubmitRejectFidelity(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{Type: TypeSubmitBatchReply, SubmitBatchReply: &SubmitBatchReply{Results: []SubmitResult{
		{JobID: 11},
		{JobID: 12, Reject: &SubmitReject{
			Code: RejectQuotaJobs, Reason: "tenant at queued-job quota", RetryAfter: 2.5,
		}},
	}}}
	f := NewFramer(CodecJSON)
	if err := f.Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := f.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := got.SubmitBatchReply
	if r == nil || len(r.Results) != 2 {
		t.Fatalf("batch reply = %+v", got)
	}
	if r.Results[0].Reject != nil || r.Results[0].JobID != 11 {
		t.Errorf("accepted result = %+v", r.Results[0])
	}
	rej := r.Results[1].Reject
	if r.Results[1].JobID != 12 || rej == nil || rej.Code != RejectQuotaJobs || rej.Reason != "tenant at queued-job quota" || rej.RetryAfter != 2.5 {
		t.Errorf("reject = %+v", rej)
	}
}
