package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"github.com/tetris-sched/tetris/internal/journal"
	"github.com/tetris-sched/tetris/internal/wire"
)

// Stand-alone loops over a single layer, fed with what a workload really
// produced. They run after the traced episode's timed region.

// recordsPerSync is how many appends the journal probe makes between
// durability barriers: about what one rm-submit batch costs one shard
// (its share of 16 submits plus their launches and completions).
const recordsPerSync = 36

// journalProbe times internal/journal alone with the records a shard of
// rm-submit wrote: recovery of a copy of shardDir, then appends of the
// same payloads into a fresh journal with a Sync every recordsPerSync
// appends (fsyncs timed through Options.ObserveFsync), then a snapshot.
func journalProbe(layer map[string]float64, shardDir, scratch string) error {
	readDir := filepath.Join(scratch, "probe-read")
	if err := copyTree(shardDir, readDir); err != nil {
		return err
	}
	t0 := time.Now()
	j, rec, err := journal.Open(journal.Options{Dir: readDir})
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	layer["journal.open_replay_ms"] = ms(time.Since(t0))
	if err := j.Close(); err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	if len(rec.Records) == 0 {
		return fmt.Errorf("journal probe: %s holds no records", shardDir)
	}
	var payloadBytes int
	for _, r := range rec.Records {
		payloadBytes += len(r)
	}
	state := rec.Snapshot
	if state == nil {
		state = bytes.Join(rec.Records, nil)
	}

	var fsyncs []float64
	j, _, err = journal.Open(journal.Options{
		Dir:          filepath.Join(scratch, "probe-write"),
		Sync:         journal.SyncInterval,
		ObserveFsync: func(s float64) { fsyncs = append(fsyncs, s*1e6) },
	})
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	var appendNs time.Duration
	for i, r := range rec.Records {
		t0 := time.Now()
		j.Append(r)
		appendNs += time.Since(t0)
		if (i+1)%recordsPerSync == 0 {
			if err := j.Sync(); err != nil {
				return fmt.Errorf("journal probe: %w", err)
			}
		}
	}
	t0 = time.Now()
	j.Snapshot(state)
	err = j.Sync()
	layer["journal.snapshot_ms"] = ms(time.Since(t0))
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	// Close waits for the writer goroutine, after which fsyncs is ours.
	if err := j.Close(); err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	sorted := sortedCopy(fsyncs)
	p50, _ := percentile(sorted, 0.5)
	p99, _ := percentile(sorted, 0.99)
	layer["journal.append_ns"] = float64(appendNs) / float64(len(rec.Records))
	layer["journal.sync_p50_us"] = p50
	layer["journal.sync_p99_us"] = p99
	layer["journal.syncs"] = float64(len(fsyncs))
	layer["journal.bytes_per_record"] = float64(payloadBytes) / float64(len(rec.Records))
	return nil
}

// wireProbe times internal/wire alone over the frames fleet-sparse
// exchanged: the client's binary encode of each heartbeat batch, the
// server's decode, the server's reply encode and the client's reply
// decode, each through a Framer into or out of memory; plus the JSON
// encode of the same batches for contrast.
func wireProbe(layer map[string]float64, requests, replies []*wire.Message) error {
	if len(requests) == 0 || len(requests) != len(replies) {
		return fmt.Errorf("wire probe: captured %d requests and %d replies", len(requests), len(replies))
	}
	beats := 0
	for _, m := range requests {
		beats += len(m.HeartbeatBatch.Beats)
	}
	perBeat := func(d time.Duration) float64 { return float64(d) / float64(beats) }

	// encode frames msgs through f into memory, keeping a copy of each
	// frame when keep is set; decode reads frames back through f.
	encode := func(f *wire.Framer, msgs []*wire.Message, keep bool) (frames [][]byte, took time.Duration, err error) {
		var buf bytes.Buffer
		for _, m := range msgs {
			buf.Reset()
			t0 := time.Now()
			err := f.Write(&buf, m)
			took += time.Since(t0)
			if err != nil {
				return nil, 0, fmt.Errorf("wire probe: %w", err)
			}
			if keep {
				frames = append(frames, append([]byte(nil), buf.Bytes()...))
			}
		}
		return frames, took, nil
	}
	decode := func(f *wire.Framer, frames [][]byte) (took time.Duration, err error) {
		var r bytes.Reader
		for _, b := range frames {
			r.Reset(b)
			t0 := time.Now()
			_, err := f.Read(&r)
			took += time.Since(t0)
			if err != nil {
				return 0, fmt.Errorf("wire probe: %w", err)
			}
		}
		return took, nil
	}

	client, server := wire.NewFramer(wire.CodecBinary), wire.NewServerFramer()
	reqFrames, encNs, err := encode(client, requests, true)
	if err != nil {
		return err
	}
	// The server Framer replies in the format it last read, so it
	// decodes the requests before it encodes the replies.
	decNs, err := decode(server, reqFrames)
	if err != nil {
		return err
	}
	repFrames, repEncNs, err := encode(server, replies, true)
	if err != nil {
		return err
	}
	repDecNs, err := decode(client, repFrames)
	if err != nil {
		return err
	}
	_, jsonNs, err := encode(wire.NewFramer(wire.CodecJSON), requests, false)
	if err != nil {
		return err
	}
	// A second pass over warm Framers counts what one exchange (request
	// and reply, both directions) allocates in steady state.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_, _, err = encode(client, requests, false)
	if err == nil {
		_, err = decode(server, reqFrames)
	}
	if err == nil {
		_, _, err = encode(server, replies, false)
	}
	if err == nil {
		_, err = decode(client, repFrames)
	}
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	layer["wire.encode_ns_per_beat"] = perBeat(encNs)
	layer["wire.decode_ns_per_beat"] = perBeat(decNs)
	layer["wire.reply_encode_ns_per_beat"] = perBeat(repEncNs)
	layer["wire.reply_decode_ns_per_beat"] = perBeat(repDecNs)
	layer["wire.json_encode_ns_per_beat"] = perBeat(jsonNs)
	layer["wire.allocs_per_frame"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(2*len(requests))
	return nil
}
