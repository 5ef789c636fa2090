package microarch

import (
	"testing"

	"xqsim/internal/compiler"
	"xqsim/internal/decoder"
	"xqsim/internal/surface"
)

// TestPatchSlidingMatchesPriority pins Fig. 20's claim on the pipeline:
// decoding through Optimization #4's sliding window yields exactly the
// priority encoder's matching, so every outcome, match, syndrome and
// transfer count agrees, and the decode latency grows only by the one
// pipeline-fill cycle per window slide (at most one per patch per
// window). It runs a d=5 functional program and the d=15 scaling
// workload behind MeasureRates.
func TestPatchSlidingMatchesPriority(t *testing.T) {
	cases := []struct {
		name       string
		circ       compiler.Circuit
		d          int
		functional bool
	}{
		{"qaoa-d5-functional", compiler.QAOA(4).SubstituteStabilizer(), 5, true},
		{"random-ppr-d15-scaling", compiler.RandomPPR(4, 6, 1).SubstituteStabilizer(), 15, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := compiler.Compile(tc.circ)
			if err != nil {
				t.Fatal(err)
			}
			run := func(scheme decoder.Scheme) (Metrics, int) {
				cfg := testConfig(tc.d, 0.001, 1)
				cfg.Functional = tc.functional
				cfg.Scheme = scheme
				pl := NewPipeline(surface.NewPPRLayout(tc.circ.NLQ, tc.d), cfg)
				if err := pl.Run(res.Program); err != nil {
					t.Fatal(err)
				}
				return pl.M, pl.B.Layout.NumPatches()
			}
			pr, patches := run(decoder.SchemePriority)
			ps, _ := run(decoder.SchemePatchSliding)
			if pr.MregFile != ps.MregFile {
				t.Error("measurement registers differ")
			}
			if pr.MatchesSum != ps.MatchesSum || pr.MatchStepsSum != ps.MatchStepsSum || pr.SyndromesSum != ps.SyndromesSum {
				t.Errorf("matches/steps/syndromes %d/%d/%d under priority, %d/%d/%d under patch-sliding",
					pr.MatchesSum, pr.MatchStepsSum, pr.SyndromesSum, ps.MatchesSum, ps.MatchStepsSum, ps.SyndromesSum)
			}
			if pr.TransferBits != ps.TransferBits {
				t.Error("inter-unit transfer bits differ")
			}
			if pr.MatchesSum == 0 {
				t.Fatal("no matches decoded: the comparison is vacuous")
			}
			slides := int64(ps.DecodeCyclesSum) - int64(pr.DecodeCyclesSum)
			if limit := int64(pr.DecodeWindows * patches); slides <= 0 || slides > limit {
				t.Errorf("patch-sliding adds %d decode cycles over %d windows of %d patches, want 1..%d",
					slides, pr.DecodeWindows, patches, limit)
			}
		})
	}
}
