// Package swvet assembles the repo's analyzer suite: six passes enforcing
// StreamWorks invariants that ordinary vet cannot know about (scratch-buffer
// aliasing, stream-time-only hot paths, allocation-free trace events,
// deterministic output, subscription lifecycles, sentinel wrapping). What
// `go vet` and staticcheck already check — both run in CI — has no copy
// here.
package swvet

import (
	"github.com/streamworks/streamworks/internal/analysis"
	"github.com/streamworks/streamworks/internal/analysis/passes/errcmp"
	"github.com/streamworks/streamworks/internal/analysis/passes/maporder"
	"github.com/streamworks/streamworks/internal/analysis/passes/obsescape"
	"github.com/streamworks/streamworks/internal/analysis/passes/scratchalias"
	"github.com/streamworks/streamworks/internal/analysis/passes/sinkleak"
	"github.com/streamworks/streamworks/internal/analysis/passes/walltime"
)

// Analyzers returns the full suite in stable (alphabetical) order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		errcmp.Analyzer,
		maporder.Analyzer,
		obsescape.Analyzer,
		scratchalias.Analyzer,
		sinkleak.Analyzer,
		walltime.Analyzer,
	}
}
