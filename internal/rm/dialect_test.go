package rm

// Every client in the tree speaks one dialect: the message type picks the
// codec, whoever writes the frame.

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/am"
	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/hollow"
	"github.com/tetris-sched/tetris/internal/nm"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// hotTypes are the types with a binary encoding; every other type is cold.
var hotTypes = map[string]bool{
	wire.TypeError: true, wire.TypeRegisterNM: true, wire.TypeNMReply: true,
	wire.TypeAMHeartbeat: true, wire.TypeAMReply: true,
	wire.TypeHeartbeatBatch: true, wire.TypeHeartbeatBatchReply: true,
	wire.TypeClusterStatus: true,
}

// frameKind is a message type in one direction: "reads" or "writes", as
// the RM sees it.
type frameKind struct{ dir, typ string }

// dialectTap stands in front of a live RM on a loopback socket of its
// own: it relays every connection's frames unchanged and records the
// message type and codec byte of each, by direction, and the nodes whose
// beats arrived in heartbeat-batch frames.
type dialectTap struct {
	t       *testing.T
	mu      sync.Mutex
	seen    map[frameKind]map[wire.Codec]int // → codec → frames
	batched map[int]bool
}

func tapRM(t *testing.T, rmAddr string) (string, *dialectTap) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	d := &dialectTap{t: t, seen: make(map[frameKind]map[wire.Codec]int), batched: make(map[int]bool)}
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", rmAddr)
			if err != nil {
				client.Close()
				continue
			}
			go d.relay(client, server, "reads")
			go d.relay(server, client, "writes")
		}
	}()
	return ln.Addr().String(), d
}

func (d *dialectTap) relay(src, dst net.Conn, dir string) {
	defer src.Close()
	defer dst.Close()
	var hdr [6]byte
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		frame := append(hdr[:], make([]byte, binary.BigEndian.Uint32(hdr[2:]))...)
		if _, err := io.ReadFull(src, frame[len(hdr):]); err != nil {
			return
		}
		m, err := wire.NewServerFramer().Read(bytes.NewReader(frame))
		if err != nil {
			d.t.Errorf("the RM %s a frame the tap cannot decode: %v", dir, err)
			return
		}
		d.mu.Lock()
		key := frameKind{dir, m.Type}
		if d.seen[key] == nil {
			d.seen[key] = make(map[wire.Codec]int)
		}
		d.seen[key][wire.Codec(hdr[1])]++
		if b := m.HeartbeatBatch; b != nil {
			for _, hb := range b.Beats {
				d.batched[hb.NodeID] = true
			}
		}
		d.mu.Unlock()
		if _, err := dst.Write(frame); err != nil {
			return
		}
	}
}

// TestEveryClientSpeaksOneDialect drives every client against a live RM
// through the tap — a real NM, an AM, a batched hollow fleet link and a
// hollow AM pool, and a status request — and holds each frame, both ways,
// to its type's codec: hot types binary, cold types JSON. The real NM,
// left steady, must have sent delta reports, and its beats must have
// arrived as heartbeat-batch frames: the RM reads no other heartbeat frame.
func TestEveryClientSpeaksOneDialect(t *testing.T) {
	g, err := NewSharded("127.0.0.1:0", ShardedConfig{Shards: 1, NewScheduler: tetrisScheduler, NewEstimator: estimator.New})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	addr, tap := tapRM(t, g.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	nodeCtx, stopNodes := context.WithCancel(ctx)
	var nodes sync.WaitGroup
	defer nodes.Wait()
	defer stopNodes()

	capV := resources.New(16, 32, 200, 200, 1000, 1000)
	reg := telemetry.NewRegistry()
	node := nm.New(nm.Config{NodeID: 100, Capacity: capV, RMAddr: addr,
		Heartbeat: 10 * time.Millisecond, Compression: 100, Metrics: reg})
	fleet, err := hollow.New(hollow.Config{RMAddr: addr, Nodes: 4, Conns: 1, Capacity: capV,
		Heartbeat: 20 * time.Millisecond, Compression: 100, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	nodes.Add(2)
	go func() { defer nodes.Done(); node.Run(nodeCtx) }()
	go func() { defer nodes.Done(); fleet.Run(nodeCtx) }()

	var ams sync.WaitGroup
	ams.Add(1)
	go func() {
		defer ams.Done()
		if _, err := am.Run(ctx, am.Config{RMAddr: addr, Job: chaosJob(1, 6), Poll: 10 * time.Millisecond}); err != nil {
			t.Errorf("am.Run: %v", err)
		}
	}()
	rep := hollow.RunAMs(ctx, hollow.AMConfig{RMAddr: addr, Jobs: []*workload.Job{chaosJob(2, 4), chaosJob(3, 4)},
		AMs: 1, Poll: 10 * time.Millisecond, TimeScale: 100})
	ams.Wait()
	if rep.Finished != 2 {
		t.Fatalf("hollow AM pool finished %d of 2 jobs: %+v", rep.Finished, rep)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	status := wire.NewFramer(wire.CodecBinary)
	if err := status.Write(conn, &wire.Message{Type: wire.TypeClusterStatus}); err != nil {
		t.Fatal(err)
	}
	if m, err := status.Read(conn); err != nil || m.ClusterStatus == nil {
		t.Fatalf("cluster status: m=%+v err=%v", m, err)
	}

	deltas := reg.Counter("tetris_nm_delta_heartbeats_total", "")
	for deadline := time.Now().Add(5 * time.Second); deltas.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	stopNodes()
	nodes.Wait()
	if deltas.Value() == 0 {
		t.Error("a steady real NM sent no delta report")
	}

	tap.mu.Lock()
	defer tap.mu.Unlock()
	for _, typ := range []string{wire.TypeRegisterNM, wire.TypeHeartbeatBatch,
		wire.TypeSubmitJob, wire.TypeAMHeartbeat, wire.TypeClusterStatus} {
		if tap.seen[frameKind{"reads", typ}] == nil {
			t.Errorf("the RM read no %s frame; saw %v", typ, tap.seen)
		}
	}
	if !tap.batched[100] {
		t.Error("the real NM's beats never arrived in a heartbeat-batch frame")
	}
	if n := tap.seen[frameKind{"reads", "nm-heartbeat"}]; n != nil {
		t.Errorf("the RM read nm-heartbeat frames: %v", n)
	}
	for _, typ := range []string{wire.TypeNMReply, wire.TypeHeartbeatBatchReply, wire.TypeAMReply, wire.TypeClusterStatusReply} {
		if tap.seen[frameKind{"writes", typ}] == nil {
			t.Errorf("the RM wrote no %s frame; saw %v", typ, tap.seen)
		}
	}
	for k, codecs := range tap.seen {
		want := wire.CodecJSON
		if hotTypes[k.typ] {
			want = wire.CodecBinary
		}
		for c, n := range codecs {
			if c != want {
				t.Errorf("the RM %s %d %s frames in codec %d, want codec %d", k.dir, n, k.typ, c, want)
			}
		}
	}
}
