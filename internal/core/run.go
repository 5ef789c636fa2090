package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"xqsim/internal/compiler"
	"xqsim/internal/config"
	"xqsim/internal/decoder"
	"xqsim/internal/estimator"
	"xqsim/internal/faults"
	"xqsim/internal/ftqc"
	"xqsim/internal/microarch"
	"xqsim/internal/pauli"
	"xqsim/internal/statevec"
	"xqsim/internal/surface"
)

// PipelineConfig builds a run's microarchitecture configuration; the
// pipeline reads the Table 4 constants from internal/config itself.
func PipelineConfig(d int, physError float64, scheme decoder.Scheme, functional bool, seed int64) microarch.Config {
	return microarch.Config{
		D:          d,
		PhysError:  physError,
		Seed:       seed,
		Functional: functional,
		Scheme:     scheme,
	}
}

// Bounds on a run's inputs, which CheckCode and CheckRun enforce before
// any simulator state is allocated.
const (
	// MaxDistance bounds the code distance. A run's work grows as d^3 (d
	// rounds over d^2 sites per patch and window): one xqsim run at d=101,
	// a shot plus its rate measurement, takes about 3.5 s on a 2-vCPU
	// machine, and no experiment here goes past d=21 (the decoder
	// tournament's grid).
	MaxDistance = 101
	// MaxRunLQ bounds a functional run's logical qubits. RunShotsOpt
	// tallies 2^nLQ outcomes per worker and the exact reference holds a
	// 2^nLQ-amplitude state vector: 8 MiB and 16 MiB at 20, inside
	// statevec's limit of 24 qubits.
	MaxRunLQ = 20
	// MaxPPRs bounds a random workload's rotation count. RandomPPR
	// builds every rotation before the first one runs, and a functional
	// run costs about 17 us per rotation and shot (4 logical qubits,
	// d=3, 2 vCPUs): 10,000 rotations at xqd's default 256 shots take
	// about 14 s. The paper's constraint study (Fig. 5) draws 100.
	MaxPPRs = 10000
	// MaxWorkloadLQ bounds a workload's logical qubits in any mode. A
	// random workload holds MaxPPRs products over nLQ qubits, and a
	// scalability run sizes a layout of 3·(2·nLQ−1) patches from it:
	// at 1,024 qubits RandomPPR allocates about 13 MB in 0.13 s (2
	// vCPUs) and the layout 0.6 MB, where 10^7 qubits asked for a
	// 6.2 GB block. 1,024 logical qubits are 3.1 M physical qubits at
	// d=15, 16 times the largest direct scaling run (64 logical qubits,
	// 195,072 physical, past the paper's 59K-qubit final design).
	MaxWorkloadLQ = 1024
)

// CheckCode reports whether d and physError describe a code the
// simulator runs: d odd (surface.NewCode's rotated layout) and in
// [3, MaxDistance], and physError a per-site probability in [0, 1)
// (noise.NewModel's domain).
func CheckCode(d int, physError float64) error {
	if d < 3 || d%2 == 0 || d > MaxDistance {
		return fmt.Errorf("core: code distance must be odd and in [3, %d], got %d", MaxDistance, d)
	}
	if !(physError >= 0 && physError < 1) {
		return fmt.Errorf("core: physical error rate must be in [0, 1), got %g", physError)
	}
	return nil
}

// CheckRun is CheckCode plus a functional run's bound on the circuit's
// logical qubits, 1 <= nLQ <= MaxRunLQ. NewShotRunner applies it, so
// RunShotsOpt and ValidateCircuit return its error.
func CheckRun(nLQ, d int, physError float64) error {
	if err := CheckCode(d, physError); err != nil {
		return err
	}
	if nLQ < 1 || nLQ > MaxRunLQ {
		return fmt.Errorf("core: a functional run takes 1 to %d logical qubits, got %d", MaxRunLQ, nLQ)
	}
	return nil
}

// CheckWorkload reports whether a generated workload can be built, in
// any mode: 1 to MaxWorkloadLQ logical qubits (RandomPPR finds no
// non-identity product over none, and a layout needs a patch), 0 to
// MaxPPRs random rotations, and a product that pauli.ParseProduct
// accepts unless it is empty. A ppr workload passes its product's
// length as nLQ. Workload.Check applies it, and xqsim's flags and xqd's
// JobSpec.Normalize call that before building anything.
func CheckWorkload(nLQ, pprs int, product string) error {
	if nLQ < 1 {
		return fmt.Errorf("core: a workload takes at least 1 logical qubit, got %d", nLQ)
	}
	if nLQ > MaxWorkloadLQ {
		return fmt.Errorf("core: a workload takes at most %d logical qubits, got %d", MaxWorkloadLQ, nLQ)
	}
	if pprs < 0 || pprs > MaxPPRs {
		return fmt.Errorf("core: a random workload takes 0 to %d rotations, got %d", MaxPPRs, pprs)
	}
	if _, ok := pauli.ParseProduct(product); product != "" && !ok {
		return fmt.Errorf("core: product %q is not a string of I, X, Y and Z", product)
	}
	return nil
}

// Workload names a generated workload and its generator's inputs.
// workloads is the one table from a name to its generator, so xqsim's
// -workload flag and xqd's simulate specs cannot drift apart.
type Workload struct {
	Kind    string // random | qft2 | qaoa | ppr
	LQ      int    // logical qubits (random, qaoa)
	PPRs    int    // rotations (random)
	Product string // Pauli product (ppr); its length is the qubit count
	Seed    int64  // rotation draw (random)
}

// workloadGen is one row of the workload table: the inputs the
// generator reads, its fixed qubit count when it reads neither LQ nor
// a product, and the generator.
type workloadGen struct {
	name              string
	lq, pprs, product bool
	qubits            int
	build             func(Workload) compiler.Circuit
}

var workloads = []workloadGen{
	{name: "random", lq: true, pprs: true, build: func(w Workload) compiler.Circuit { return compiler.RandomPPR(w.LQ, w.PPRs, w.Seed) }},
	{name: "qft2", qubits: 2, build: func(Workload) compiler.Circuit { return compiler.QFT2(2) }},
	{name: "qaoa", lq: true, build: func(w Workload) compiler.Circuit { return compiler.QAOA(w.LQ) }},
	{name: "ppr", product: true, build: func(w Workload) compiler.Circuit { return compiler.SinglePPR(w.Product, ftqc.AnglePi8) }},
}

func (w Workload) gen() (workloadGen, error) {
	names := make([]string, len(workloads))
	for i, g := range workloads {
		if g.name == w.Kind {
			return g, nil
		}
		names[i] = g.name
	}
	return workloadGen{}, fmt.Errorf("unknown workload %q (have %s)", w.Kind, strings.Join(names, ", "))
}

// Canonical returns w with the inputs its generator does not read
// zeroed (Seed stays: a run draws from it too), or an error for a name
// the table does not hold.
func (w Workload) Canonical() (Workload, error) {
	g, err := w.gen()
	if err != nil {
		return w, err
	}
	if !g.lq {
		w.LQ = 0
	}
	if !g.pprs {
		w.PPRs = 0
	}
	if !g.product {
		w.Product = ""
	}
	return w, nil
}

// NLQ is the logical-qubit count of w's circuit, without building it
// (0 for an unknown name).
func (w Workload) NLQ() int {
	switch g, _ := w.gen(); {
	case g.lq:
		return w.LQ
	case g.product:
		return len(w.Product)
	default:
		return g.qubits
	}
}

// Check is CheckWorkload on the inputs w's generator reads.
func (w Workload) Check() error {
	c, err := w.Canonical()
	if err != nil {
		return err
	}
	return CheckWorkload(c.NLQ(), c.PPRs, c.Product)
}

// Circuit checks w and builds its circuit.
func (w Workload) Circuit() (compiler.Circuit, error) {
	if err := w.Check(); err != nil {
		return compiler.Circuit{}, err
	}
	g, _ := w.gen() // Check found the name
	return g.build(w), nil
}

// RunOptions tunes RunShotsOpt beyond the standard happy path.
type RunOptions struct {
	// Faults configures deterministic fault injection in every shot's
	// pipeline (decoder stalls, buffer overflow, link corruption); the
	// zero value injects nothing.
	Faults faults.Config
	// ShotTimeout is the per-shot watchdog: a shot whose pipeline run
	// exceeds it is aborted and reported as an error carrying the shot
	// index and seed. Zero disables the watchdog.
	ShotTimeout time.Duration
}

// shotSeedStride separates per-shot seed streams (a prime, so strides
// never fold onto each other for nearby base seeds).
const shotSeedStride = 104729

// ShotSeed returns the derived seed of one shot, so a failed shot
// reported by RunShots can be replayed in isolation.
func ShotSeed(seed int64, shot int) int64 { return seed + int64(shot)*shotSeedStride }

// shotHook, when non-nil, runs at the start of every shot. It exists so
// tests can inject deliberate panics into worker goroutines.
var shotHook func(shot int)

// ShotRunner executes shots of one circuit through a reusable pipeline.
// The circuit is compiled exactly once — QISA program plus the
// pre-validated micro-op stream — and every RunShot resets the same
// pipeline to the shot's derived seed, so the steady-state shot costs
// zero heap allocations (pinned by TestShotRunnerSteadyStateAllocs).
// The pipeline Reset determinism contract makes each shot bit-identical
// to what a freshly built pipeline would produce, so results do not
// depend on which runner (or how warmed-up a runner) executes a shot.
//
// A runner is single-goroutine; Clone gives each worker its own pipeline
// over the shared compiled artifacts.
type ShotRunner struct {
	res  *compiler.Result           //xqlint:shared compile result is immutable after Compile
	cp   *microarch.CompiledProgram //xqlint:shared compiled op-stream is immutable; workers replay it read-only
	nLQ  int
	seed int64
	opts RunOptions
	pl   *microarch.Pipeline
}

// NewShotRunner validates and compiles circ once and builds the reusable
// pipeline. Shot s of RunShot draws its stream from ShotSeed(seed, s).
func NewShotRunner(circ compiler.Circuit, d int, physError float64, seed int64, opts RunOptions) (*ShotRunner, error) {
	if err := CheckRun(circ.NLQ, d, physError); err != nil {
		return nil, err
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	res, err := compiler.Compile(circ)
	if err != nil {
		return nil, err
	}
	cp, err := microarch.CompileProgram(res.Program, circ.NLQ, d)
	if err != nil {
		return nil, err
	}
	cfg := PipelineConfig(d, physError, decoder.SchemePriority, true, seed)
	cfg.Faults = opts.Faults
	return &ShotRunner{
		res:  res,
		cp:   cp,
		nLQ:  circ.NLQ,
		seed: seed,
		opts: opts,
		pl:   microarch.NewPipeline(surface.NewPPRLayout(circ.NLQ, d), cfg),
	}, nil
}

// Clone returns a runner over the same compiled program with its own
// pipeline, so shots can run on several workers concurrently.
func (r *ShotRunner) Clone() *ShotRunner {
	c := *r
	c.pl = microarch.NewPipeline(surface.NewPPRLayout(r.nLQ, r.pl.Cfg.D), r.pl.Cfg)
	return &c
}

// RunShot executes shot s: the pipeline is rewound to ShotSeed(seed, s)
// and the compiled stream replayed. The returned metrics point into the
// runner's pipeline and are valid until the next RunShot; callers that
// keep them across shots must copy the value. A panic is recovered into
// an error naming the shot and its replay seed, like RunShots reports.
func (r *ShotRunner) RunShot(ctx context.Context, s int) (m *microarch.Metrics, key int, err error) {
	shotSeed := ShotSeed(r.seed, s)
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("core: shot %d panicked: %v (replay with seed %d)", s, rec, shotSeed)
		}
	}()
	if shotHook != nil {
		shotHook(s)
	}
	r.pl.Reset(shotSeed)
	runCtx := ctx
	if r.opts.ShotTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, r.opts.ShotTimeout)
		defer cancel()
	}
	if err := r.pl.RunCompiled(runCtx, r.cp); err != nil {
		return nil, 0, fmt.Errorf("core: shot %d (seed %d): %w", s, shotSeed, err)
	}
	for q, mreg := range r.res.FinalMreg {
		if r.pl.M.MregFile.Get(uint16(mreg)) {
			key |= 1 << uint(q)
		}
	}
	return &r.pl.M, key, nil
}

// RunShots executes a circuit through the full stack (compiler -> QISA ->
// microarchitecture -> noisy surface-code backend) for the given number of
// shots and returns the empirical distribution over final logical
// readouts plus the final shot's metrics. Circuits containing pi/8
// rotations must be passed through SubstituteStabilizer first.
//
// Shots run across GOMAXPROCS workers; per-shot seeds are derived
// deterministically from the base seed, so the distribution is
// reproducible regardless of scheduling. Canceling ctx aborts the run
// between instructions and returns the context's error.
func RunShots(ctx context.Context, circ compiler.Circuit, d int, physError float64, shots int, seed int64) ([]float64, *microarch.Metrics, error) {
	return RunShotsOpt(ctx, circ, d, physError, shots, seed, RunOptions{})
}

// RunShotsOpt is RunShots with fault injection and a per-shot watchdog.
// The returned metrics carry the final shot's accounting, except Faults,
// which is summed across all shots (an integer reduction, so it is
// identical regardless of worker scheduling). A panicking shot is
// recovered and reported as an error naming the shot index and seed.
// A shot count below 1 is an error: there is no distribution to report.
func RunShotsOpt(ctx context.Context, circ compiler.Circuit, d int, physError float64, shots int, seed int64, opts RunOptions) ([]float64, *microarch.Metrics, error) {
	if shots < 1 {
		return nil, nil, fmt.Errorf("core: shots must be at least 1, got %d", shots)
	}
	base, err := NewShotRunner(circ, d, physError, seed, opts)
	if err != nil {
		return nil, nil, err
	}

	// One tally per worker, merged after the pool returns.
	type tally struct {
		counts []float64
		faults faults.Totals
	}
	workers := Workers(shots)
	runners := perWorker(base, workers)
	tallies := make([]tally, workers)
	for w := range tallies {
		tallies[w].counts = make([]float64, 1<<uint(circ.NLQ))
	}
	var last microarch.Metrics // written only by the worker that runs the final shot
	if err := ParallelFor(ctx, shots, workers, func(w, s int) error {
		m, key, err := runners[w].RunShot(ctx, s)
		if err != nil {
			return err
		}
		tallies[w].counts[key]++
		tallies[w].faults.Add(m.Faults)
		if s == shots-1 {
			// A value copy: RunShot's result lives inside the reused
			// pipeline and is overwritten by the worker's next shot.
			last = *m
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}

	sum := tallies[0]
	for _, t := range tallies[1:] {
		for i, c := range t.counts {
			sum.counts[i] += c
		}
		sum.faults.Add(t.faults)
	}
	for i := range sum.counts {
		sum.counts[i] /= float64(shots)
	}
	last.Faults = sum.faults
	return sum.counts, &last, nil
}

// ValidateCircuit computes the Table-3 total variation distance between
// the noisy physical-level sampling and the exact logical reference for a
// benchmark circuit.
func ValidateCircuit(ctx context.Context, circ compiler.Circuit, d int, physError float64, shots int, seed int64) (dtv float64, phys []float64, ref []float64, err error) {
	if err := circ.Validate(); err != nil {
		return 0, nil, nil, err
	}
	// The shots run first: NewShotRunner's input check then guards the
	// reference's state vector too.
	sub := circ.SubstituteStabilizer()
	phys, _, err = RunShots(ctx, sub, d, physError, shots, seed)
	if err != nil {
		return 0, nil, nil, err
	}
	ref = compiler.ReferenceDistribution(sub)
	return statevec.TotalVariation(ref, phys), phys, ref, nil
}

// SuccessRate models the application-level success probability of running
// a workload at a given scale under the system's constraint pressure
// (the paper's Fig. 5 methodology, following Litinski's accounting):
// every active patch accrues a logical error chance per d-round window,
// and violated constraints inflate the effective physical error rate by
// the induced idle time.
//
// windows is the workload's total ESM-window count (e.g. 3 per PPR: init,
// merge, split).
func (s *System) SuccessRate(nPhys, windows int, r Rates) float64 {
	rep := s.Evaluate(nPhys, r)
	b := s.budget()
	stall := 1.0
	if rep.DecodeLatencyNs > b.DecodeBudgetNs {
		stall += rep.DecodeLatencyNs / b.DecodeBudgetNs
	}
	if !rep.BWOK {
		stall += rep.CrossTransferGbps / b.MaxCrossGbps()
	}
	if !rep.TransferOK {
		stall += rep.CrossHeatW / b.Power4KW
	}
	pEff := b.PhysErrorRate * stall
	if pEff > 0.5 {
		pEff = 0.5
	}
	// Standard surface-code logical-error fit per patch per window.
	pl := config.LogicalErrorA * math.Pow(pEff/config.ErrorThreshold, float64(s.D+1)/2)
	if pl > 1 {
		pl = 1
	}
	patches := float64(estimator.ScaleFor(nPhys, s.D).NPatches)
	return math.Exp(-pl * patches * float64(windows))
}

// trialSeedStride separates per-trial seed streams of the memory
// experiment (a prime, like shotSeedStride).
const trialSeedStride = 6151

// memoryTrial runs one threshold-experiment trial: prepare |0_L>, run
// `windows` decode windows with fault injection, and report whether the
// final Z readout flipped. A panic inside the backend is converted into
// an error naming the trial and its seed.
//
// It builds a fresh backend per trial — the reference implementation the
// reusable MemoryRunner is tested against (TestMemoryRunnerMatchesFresh).
func memoryTrial(d int, p float64, windows int, trialSeed int64, fcfg faults.Config) (fail bool, tot faults.Totals, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: memory trial panicked: %v (replay with seed %d)", r, trialSeed)
		}
	}()
	layout := surface.NewPPRLayout(1, d)
	b := microarch.NewBackend(layout, p, trialSeed, true)
	inj := faults.NewInjector(fcfg, trialSeed)
	b.PrepareZero(0)
	for w := 0; w < windows; w++ {
		for r := 0; r < d; r++ {
			b.InjectRoundNoise()
			if inj.Round().DropEvents {
				b.DropNextRoundEvents()
			}
			b.MeasureSyndromesRound(r == d-1)
		}
		wd := b.FinishWindow()
		// The injector prices the window at the same decode cost the full
		// pipeline would; under backpressure overflow the data qubits
		// idle (and decohere) for the excess rounds.
		wo := inj.Window(decoder.WindowCycles(decoder.SchemePriority, d, wd.MatchesZ, wd.MatchesX, wd.ActiveCells, wd.Windows), d)
		for i := 0; i < wo.BackpressureRounds; i++ {
			b.InjectRoundNoise()
		}
	}
	pr := pauli.NewProduct(b.NumLQ())
	pr.Ops[0] = pauli.Z
	return b.MeasureProduct(pr), inj.Totals(), nil
}

// MemoryRunner holds the reusable state of one threshold-experiment
// worker: a single-patch backend, a fault injector, and the readout
// product. Trial rewinds them to the trial's derived seed, and the
// backend Reset contract makes the result bit-identical to a freshly
// built backend's — so trials are independent of which runner executes
// them, and the steady-state trial loop is allocation-free.
type MemoryRunner struct {
	d    int
	b    *microarch.Backend
	inj  *faults.Injector
	fcfg faults.Config
	pr   pauli.Product
}

// NewMemoryRunner builds a runner for a distance-d memory patch at
// physical error rate p under the fault environment fcfg (zero value:
// no injection).
func NewMemoryRunner(d int, p float64, fcfg faults.Config) *MemoryRunner {
	b := microarch.NewBackend(surface.NewPPRLayout(1, d), p, 0, true)
	return &MemoryRunner{
		d:    d,
		b:    b,
		inj:  faults.NewInjector(fcfg, 0),
		fcfg: fcfg,
		pr:   pauli.NewProduct(b.NumLQ()),
	}
}

// SetPhysError retargets the runner to a new physical error rate; sweep
// grids reuse one runner across their error-rate cells.
func (r *MemoryRunner) SetPhysError(p float64) { r.b.SetPhysError(p) }

// SetFaults swaps the fault environment. The injector's schedule is
// reseeded at every trial, so the swap only matters for the config.
func (r *MemoryRunner) SetFaults(fcfg faults.Config) {
	if fcfg == r.fcfg {
		return
	}
	r.fcfg = fcfg
	r.inj = faults.NewInjector(fcfg, 0)
}

// Trial runs one threshold-experiment trial at the given derived seed,
// reproducing memoryTrial's fresh-construction result exactly.
func (r *MemoryRunner) Trial(windows int, trialSeed int64) (fail bool, tot faults.Totals, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("core: memory trial panicked: %v (replay with seed %d)", rec, trialSeed)
		}
	}()
	b := r.b
	b.Reset(trialSeed)
	r.inj.Reset(trialSeed)
	b.PrepareZero(0)
	for w := 0; w < windows; w++ {
		for rd := 0; rd < r.d; rd++ {
			b.InjectRoundNoise()
			if r.inj.Round().DropEvents {
				b.DropNextRoundEvents()
			}
			b.MeasureSyndromesRound(rd == r.d-1)
		}
		wd := b.FinishWindow()
		wo := r.inj.Window(decoder.WindowCycles(decoder.SchemePriority, r.d, wd.MatchesZ, wd.MatchesX, wd.ActiveCells, wd.Windows), r.d)
		for i := 0; i < wo.BackpressureRounds; i++ {
			b.InjectRoundNoise()
		}
	}
	for q := range r.pr.Ops {
		r.pr.Ops[q] = pauli.I
	}
	r.pr.Phase = 0
	r.pr.Ops[0] = pauli.Z
	return b.MeasureProduct(r.pr), r.inj.Totals(), nil
}

// MemoryExperiment is a reusable worker pool of MemoryRunners for one
// code distance. Grid sweeps hold one experiment per distance and call
// ErrorRate per cell: the backends, tableaus, and layouts are built once
// and retargeted in place (SetPhysError/SetFaults), which is where the
// threshold-study allocation reduction comes from.
type MemoryExperiment struct {
	d       int
	runners []*MemoryRunner
}

// NewMemoryExperiment builds an empty pool for distance d; runners are
// created lazily, one per worker, on the first ErrorRate call.
func NewMemoryExperiment(d int) *MemoryExperiment { return &MemoryExperiment{d: d} }

// ErrorRate measures the logical error rate of one (p, fcfg) cell over
// `trials` trials with per-trial derived seeds, exactly as
// LogicalErrorRateFaults reports it. The experiment must not be used
// from multiple goroutines at once (it parallelizes internally).
func (e *MemoryExperiment) ErrorRate(ctx context.Context, p float64, windows, trials int, seed int64, fcfg faults.Config) (float64, faults.Totals, error) {
	if err := fcfg.Validate(); err != nil {
		return 0, faults.Totals{}, err
	}
	if trials <= 0 {
		return 0, faults.Totals{}, nil
	}
	workers := Workers(trials)
	for len(e.runners) < workers {
		e.runners = append(e.runners, NewMemoryRunner(e.d, p, fcfg))
	}
	for _, r := range e.runners {
		r.SetPhysError(p)
		r.SetFaults(fcfg)
	}
	type tally struct {
		fails  int
		faults faults.Totals
	}
	tallies := make([]tally, workers)
	if err := ParallelFor(ctx, trials, workers, func(w, t int) error {
		fail, tot, err := e.runners[w].Trial(windows, seed+int64(t)*trialSeedStride)
		if err != nil {
			return err
		}
		if fail {
			tallies[w].fails++
		}
		tallies[w].faults.Add(tot)
		return nil
	}); err != nil {
		return 0, faults.Totals{}, err
	}
	sum := tallies[0]
	for _, t := range tallies[1:] {
		sum.fails += t.fails
		sum.faults.Add(t.faults)
	}
	return float64(sum.fails) / float64(trials), sum.faults, nil
}

// LogicalErrorRate measures the per-window logical X-error rate of a
// single-patch quantum memory at distance d and physical error rate p, by
// direct simulation of the backend: prepare |0_L>, run `windows` decode
// windows, and count readout flips. This is the standard threshold
// experiment; internal/sweep.ThresholdStudy sweeps it across distances.
// Trials are independent simulations with per-trial seeds, so they run
// across GOMAXPROCS workers; the returned rate is a pure count and thus
// identical to the serial loop's regardless of scheduling. Canceling ctx
// aborts between trials with the context's error.
func LogicalErrorRate(ctx context.Context, d int, p float64, windows, trials int, seed int64) (float64, error) {
	rate, _, err := LogicalErrorRateFaults(ctx, d, p, windows, trials, seed, faults.Config{})
	return rate, err
}

// LogicalErrorRateFaults is LogicalErrorRate under an injected fault
// environment; it additionally returns the fault totals summed across all
// trials (an integer reduction, so deterministic under any scheduling).
// This is the probe behind the degradation curves: logical error rate
// versus injected decoder-stall or link-corruption rate.
func LogicalErrorRateFaults(ctx context.Context, d int, p float64, windows, trials int, seed int64, fcfg faults.Config) (float64, faults.Totals, error) {
	return NewMemoryExperiment(d).ErrorRate(ctx, p, windows, trials, seed, fcfg)
}
