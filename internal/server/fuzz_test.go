package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"xqsim/internal/core"
)

// FuzzJobSpec pushes arbitrary bytes through the submit handler's
// decoding (unknown fields rejected) and JobSpec.Normalize. Whatever
// Normalize accepts must be a fixed point of Normalize, pass core's
// workload and run checks when it is a simulate job, and hash like every
// equal spec: the
// same spec normalized twice, and the spec decoded back from its own
// JSON.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"kind":"simulate"}`,
		`{"kind":"simulate","workload":"ppr","product":"ZZZ","d":3,"shots":1024}`,
		`{"kind":"simulate","workload":"qft2","lq":9,"pprs":3,"d":5,"phys_error":0.002}`,
		`{"kind":"simulate","workload":"qaoa","lq":20,"d":101,"seed":-4}`,
		`{"kind":"simulate","lq":40}`,
		`{"kind":"simulate","d":4}`,
		`{"kind":"simulate","d":100001}`,
		`{"kind":"simulate","phys_error":7}`,
		`{"kind":"sweep","experiments":["14","fig14","t3"],"d":7}`,
		`{"kind":"estimate","tech":"ersfq","nphys":-1,"experiments":["fig5"]}`,
		`{"kind":"simulate","bogus":1}`,
		`{"kind":"simulate","pprs":1000000000}`,
		`{"kind":"simulate","workload":"ppr","product":"Q"}`,
		`{"kind":"simulate","workload":"qaoa","lq":0}`,
		`{"kind":"simulate","workload":"random","lq":-2,"pprs":10000}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			t.Skip()
		}
		norm, err := spec.Normalize()
		if err != nil {
			t.Skip()
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected on a second Normalize: %v", norm, err)
		}
		raw, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		if twice, _ := json.Marshal(again); !bytes.Equal(raw, twice) {
			t.Fatalf("Normalize is not idempotent:\n%s\n%s", raw, twice)
		}
		if norm.Kind == "simulate" {
			if err := core.CheckWorkload(workloadLQ(norm), norm.PPRs, norm.Product); err != nil {
				t.Fatalf("accepted simulate spec %s fails the workload check: %v", raw, err)
			}
			if err := core.CheckRun(workloadLQ(norm), norm.D, norm.PhysErr); err != nil {
				t.Fatalf("accepted simulate spec %s fails the run check: %v", raw, err)
			}
		}
		var back JobSpec
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if h := norm.Hash(); again.Hash() != h || back.Hash() != h {
			t.Fatalf("equal specs hash differently: %s, %s, %s", h, again.Hash(), back.Hash())
		}
	})
}
