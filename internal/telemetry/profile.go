package telemetry

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts a runtime/pprof CPU profile into cpuPath and
// returns the function that stops it and then writes a heap profile
// into memPath, for a command's -cpuprofile and -memprofile flags. An
// empty path skips that profile.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // the profile shows the heap as of the last collection
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
