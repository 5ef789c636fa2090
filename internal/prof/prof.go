// Package prof wires standard runtime/pprof profiling flags into the
// command-line tools: RegisterFlags adds -cpuprofile and -memprofile to a
// command's flag set, and after parsing the command passes the paths to
// StartPaths and calls the returned stop function on exit.
package prof

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Paths holds the profile destinations; an empty path disables that
// profile.
type Paths struct {
	CPU string // -cpuprofile
	Mem string // -memprofile
}

// RegisterFlags registers -cpuprofile and -memprofile on fs and returns
// the paths they set.
func RegisterFlags(fs *flag.FlagSet) *Paths {
	p := &Paths{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file on exit")
	return p
}

// StartPaths starts the CPU profile when cpuPath is set. An empty path
// disables that profile. The returned stop function finishes the CPU
// profile and writes the heap snapshot; it is non-nil whenever err is
// nil.
func StartPaths(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close() // the StartCPUProfile error is the one worth reporting
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				_ = f.Close() // the WriteHeapProfile error is the one worth reporting
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}
