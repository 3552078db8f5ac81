package main

// sizes fixes the amount of work of every workload. One episode of a
// workload is this much work, done once from a fresh set-up; a run
// repeats episodes until its time is up and reports one figure per
// metric over them (see quietQuartile).
//
// The frozen values were calibrated on the 2-core reference box so that
// an episode's timed region is 1–2 s (see README.md, "Calibration");
// they are stamped into every result file. Tests use tinySizes.
type sizes struct {
	// PopulationSeed generates every workload's job population; --seed
	// only arranges it (see arrange).
	PopulationSeed int64 `json:"population_seed"`

	SimFB       simFBSizes       `json:"sim-fb"`
	RMBacklog   rmBacklogSizes   `json:"rm-backlog"`
	RMSubmit    rmSubmitSizes    `json:"rm-submit"`
	FleetSparse fleetSparseSizes `json:"fleet-sparse"`
}

type simFBSizes struct {
	Machines       int     `json:"machines"`
	Jobs           int     `json:"jobs"`
	ArrivalSpanSec float64 `json:"arrival_span_s"`
	Recurring      float64 `json:"recurring_fraction"`
}

type rmBacklogSizes struct {
	Nodes        int     `json:"nodes"`
	Jobs         int     `json:"jobs"`
	TaskFraction float64 `json:"task_fraction"` // share of each stage's tasks kept
	DurationDiv  float64 `json:"duration_div"`  // launch durations ÷ this = sweeps
}

type rmSubmitSizes struct {
	Shards        int `json:"shards"`
	Nodes         int `json:"nodes"`
	Batches       int `json:"batches"`
	BatchJobs     int `json:"batch_jobs"`
	JobTasks      int `json:"job_tasks"`
	Tenants       int `json:"tenants"`
	MaxQueuedJobs int `json:"max_queued_jobs"`
	Reopens       int `json:"reopens"`
}

type fleetSparseSizes struct {
	Shards       int     `json:"shards"`
	Nodes        int     `json:"nodes"`
	Conns        int     `json:"conns"`
	Batch        int     `json:"batch"`
	Jobs         int     `json:"jobs"`
	TaskFraction float64 `json:"task_fraction"`
	Sweeps       int     `json:"sweeps"`        // at least this many; more only if tasks remain
	SubmitSweeps int     `json:"submit_sweeps"` // jobs trickle in over the first this many
	DurationDiv  float64 `json:"duration_div"`
	MaxDuration  int     `json:"max_duration_sweeps"`
}

var frozenSizes = sizes{
	PopulationSeed: 1,
	SimFB:          simFBSizes{Machines: 100, Jobs: 260, ArrivalSpanSec: 1500, Recurring: 0.4},
	RMBacklog:      rmBacklogSizes{Nodes: 100, Jobs: 40, TaskFraction: 0.35, DurationDiv: 100},
	RMSubmit:       rmSubmitSizes{Shards: 4, Nodes: 64, Batches: 200, BatchJobs: 16, JobTasks: 4, Tenants: 50, MaxQueuedJobs: 64, Reopens: 5},
	FleetSparse:    fleetSparseSizes{Shards: 4, Nodes: 2000, Conns: 2, Batch: 64, Jobs: 20, TaskFraction: 0.25, Sweeps: 8, SubmitSweeps: 3, DurationDiv: 20, MaxDuration: 2},
}

// tinySizes keeps the package's tests under a few seconds.
var tinySizes = sizes{
	PopulationSeed: 1,
	SimFB:          simFBSizes{Machines: 10, Jobs: 30, ArrivalSpanSec: 200, Recurring: 0.4},
	RMBacklog:      rmBacklogSizes{Nodes: 8, Jobs: 6, TaskFraction: 0.04, DurationDiv: 10},
	RMSubmit:       rmSubmitSizes{Shards: 2, Nodes: 8, Batches: 6, BatchJobs: 4, JobTasks: 2, Tenants: 3, MaxQueuedJobs: 64, Reopens: 2},
	FleetSparse:    fleetSparseSizes{Shards: 2, Nodes: 32, Conns: 2, Batch: 8, Jobs: 4, TaskFraction: 0.03, Sweeps: 6, SubmitSweeps: 2, DurationDiv: 20, MaxDuration: 2},
}
