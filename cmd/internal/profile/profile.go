// Package profile gives the commands their -cpuprofile and -memprofile
// flags, so a host-cost claim about a run can be reproduced with the
// standard tooling (`go tool pprof -top <binary> cpu.out`).
//
// Profiling observes the host, never the simulation: it lives under cmd/,
// outside every determinism entrypoint, and a profiled run prints the same
// bytes as an unprofiled one.
package profile

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile destinations; empty means off.
type Flags struct {
	CPU, Mem string
}

// Register adds -cpuprofile and -memprofile to the default flag set.
func Register() *Flags {
	f := &Flags{}
	flag.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&f.Mem, "memprofile", "", "write an allocation profile, taken after the run, to this file")
	return f
}

// Start creates both files — so an unwritable path fails before the run, not
// after it — and starts the CPU profile. The returned stop ends the CPU
// profile, writes the allocation profile and closes the files; call it once,
// when the run is over. A run that exits early leaves the profiles incomplete.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu, mem *os.File
	closeAll := func() {
		for _, file := range []*os.File{cpu, mem} {
			if file != nil {
				file.Close()
			}
		}
	}
	if f.CPU != "" {
		if cpu, err = os.Create(f.CPU); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if f.Mem != "" {
		if mem, err = os.Create(f.Mem); err != nil {
			closeAll()
			return nil, fmt.Errorf("memprofile: %w", err)
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			closeAll()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		var first error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				first = fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if mem != nil {
			runtime.GC() // the profile reports as of the last collection
			err := pprof.Lookup("allocs").WriteTo(mem, 0)
			if cerr := mem.Close(); err == nil {
				err = cerr
			}
			if err != nil && first == nil {
				first = fmt.Errorf("memprofile: %w", err)
			}
		}
		return first
	}, nil
}
