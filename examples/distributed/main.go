// distributed boots the full YARN-style prototype on loopback TCP — a
// resource manager running the Tetris policy, four node managers and two
// concurrent job managers — and runs a small workload end to end with
// time-compressed task execution.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	tetris "github.com/tetris-sched/tetris"
	"github.com/tetris-sched/tetris/internal/am"
	"github.com/tetris-sched/tetris/internal/nm"
	"github.com/tetris-sched/tetris/internal/rm"
)

func main() {
	// One shard: a single scheduling core owns the whole fleet. Raise
	// Shards to partition the nodes; nothing else here changes.
	srv, err := rm.NewSharded("127.0.0.1:0", rm.ShardedConfig{
		Shards:       1,
		NewScheduler: func() tetris.Scheduler { return tetris.NewScheduler(tetris.DefaultConfig()) },
		NewEstimator: tetris.NewEstimator,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("resource manager on", srv.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var nmWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		node := nm.New(nm.Config{
			NodeID:      i,
			Capacity:    tetris.NewVector(16, 32, 200, 200, 1000, 1000),
			RMAddr:      srv.Addr(),
			Compression: 100, // 100 s of emulated work per wall second
		})
		nmWG.Add(1)
		go func() {
			defer nmWG.Done()
			node.Run(ctx)
		}()
	}
	fmt.Println("4 node managers heartbeating")

	// Two concurrent jobs: a CPU-bound one and a memory-bound one.
	mkJob := func(id int, peak tetris.Vector, n int) *tetris.Job {
		j := &tetris.Job{ID: id, Name: fmt.Sprintf("job-%d", id), Weight: 1}
		st := &tetris.Stage{Name: "work"}
		for i := 0; i < n; i++ {
			st.Tasks = append(st.Tasks, &tetris.Task{
				ID:   tetris.TaskID{Job: id, Stage: 0, Index: i},
				Peak: peak,
				Work: tetris.Work{CPUSeconds: peak.Get(tetris.CPU) * 30},
			})
		}
		j.Stages = []*tetris.Stage{st}
		return j
	}
	jobs := []*tetris.Job{
		mkJob(0, tetris.NewVector(4, 2, 0, 0, 0, 0), 16),
		mkJob(1, tetris.NewVector(1, 8, 0, 0, 0, 0), 16),
	}

	var amWG sync.WaitGroup
	for _, j := range jobs {
		j := j
		amWG.Add(1)
		go func() {
			defer amWG.Done()
			res, err := am.Run(ctx, am.Config{RMAddr: srv.Addr(), Job: j})
			if err != nil {
				log.Printf("job %d: %v", j.ID, err)
				return
			}
			fmt.Printf("job %d finished in %s wall time (≈%.0fs emulated)\n",
				j.ID, res.Wall.Round(time.Millisecond), res.Wall.Seconds()*100)
		}()
	}
	amWG.Wait()

	nmMean, _, amMean, _ := srv.HeartbeatStats()
	fmt.Printf("RM heartbeat processing: NM mean %.0fµs, AM mean %.0fµs\n", nmMean*1e6, amMean*1e6)
	cancel()
	nmWG.Wait()
}
