// Package cli holds the small pieces shared by every binary under cmd/:
// today, unified signal handling so all seven binaries cancel cleanly on
// SIGINT/SIGTERM instead of dying mid-write.
package cli

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// ExitInterrupted is the exit status of a one-shot command whose
// SignalContext was cancelled, after it has flushed the partial output
// it owns: 128 + SIGINT, the shell's code for an interrupted program.
const ExitInterrupted = 130

// SignalContext returns a context that is cancelled on the first SIGINT
// or SIGTERM. Call stop (usually deferred) to release the signal
// handler; after stop, a subsequent signal gets the default disposition
// (immediate termination), so a stuck shutdown can still be interrupted.
func SignalContext() (ctx context.Context, stop context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}
