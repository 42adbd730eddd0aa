package harness

import (
	"errors"
	"testing"

	"repro/internal/runner"
)

// TestPanickingCellSurfacesDeterministically: a cell that panics must not
// wedge the worker pool — every other cell still runs — and the surfaced
// failure is the lowest-index panic wrapped in *runner.PanicError.
func TestPanickingCellSurfacesDeterministically(t *testing.T) {
	e := NewEnv()
	e.Parallelism = 4
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("cell panic did not propagate")
		}
		err, ok := v.(error)
		if !ok {
			t.Fatalf("panic value %T, want error", v)
		}
		var pe *runner.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("panic value %v, want *runner.PanicError", err)
		}
		if pe.Index != 3 {
			t.Fatalf("surfaced cell %d, want lowest panicking index 3", pe.Index)
		}
	}()
	ran := make([]bool, 16)
	runCells(e, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, func(i int) int {
		ran[i] = true
		if i >= 3 && i%2 == 1 {
			panic("cell failure")
		}
		return i
	})
	_ = ran
	t.Fatal("runCells returned despite a panicking cell")
}
