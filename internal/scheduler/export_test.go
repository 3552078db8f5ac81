package scheduler

// NewReferenceTetris hands the oracle (tetris_reference_test.go) to this
// package's external tests — the gang twin-world driver, which must import
// internal/gang and so cannot live in package scheduler. Compiled into the
// test binary only.
func NewReferenceTetris(cfg TetrisConfig) Scheduler { return newReferenceTetris(cfg) }
