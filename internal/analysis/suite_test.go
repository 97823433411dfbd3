package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each analyzer runs over at least one fixture that must diagnose and
// one that must stay silent, so both the teeth and the allowlists are
// pinned.

func TestNoGoroutine(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.NoGoroutine,
		// obs is the telemetry package's padded-counter/registry idiom:
		// atomics and mutexes only, outside the allowlist, silent. pipe is
		// the streaming-operator idiom: per-worker buffers safe by the
		// delivery contract, all scheduling delegated — also silent. shard
		// is an owner that may make a channel but not call iter.Pull2.
		"nogoroutine/bad", "nogoroutine/exec", "nogoroutine/obs",
		"nogoroutine/pipe", "nogoroutine/shard")
}

func TestErrTaxonomy(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.ErrTaxonomy,
		"errtaxonomy/bad", "errtaxonomy/good")
}

func TestUnsafeConfine(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.UnsafeConfine,
		"unsafeconfine/bad", "unsafeconfine/table", "unsafeconfine/vec")
}

func TestLockDiscipline(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.LockDiscipline,
		"lockdiscipline/shard",
		// Not package shard: the discipline does not apply.
		"lockdiscipline/exec")
}

func TestCtxPropagate(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.CtxPropagate,
		// pipe mirrors the streaming runtime's construction: the good
		// newRuntime threads cfg.Ctx into the pool, the leaky variant
		// diagnoses.
		"ctxpropagate/bad", "ctxpropagate/good", "ctxpropagate/pipe")
}

func TestPkgBase(t *testing.T) {
	for _, tt := range []struct{ in, want string }{
		{"repro/table", "table"},
		{"repro/table [repro/table.test]", "table"},
		{"errtaxonomy/table", "table"},
		{"os/exec", "exec"},
		{"exec", "exec"},
	} {
		if got := analysis.PkgBase(tt.in); got != tt.want {
			t.Errorf("PkgBase(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
