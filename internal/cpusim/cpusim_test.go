package cpusim

import (
	"testing"
	"testing/quick"
)

// fpInstr returns c's retired count for one FP class.
func fpInstr(c *Counts, p Precision, w Width, fma bool) uint64 {
	return c.FP[FPClass{Prec: p, Width: w, FMA: fma}]
}

func TestLanes(t *testing.T) {
	cases := []struct {
		w    Width
		p    Precision
		want int
	}{
		{Scalar, SP, 1}, {Scalar, DP, 1},
		{W128, SP, 4}, {W128, DP, 2},
		{W256, SP, 8}, {W256, DP, 4},
		{W512, SP, 16}, {W512, DP, 8},
	}
	for _, c := range cases {
		if got := c.w.Lanes(c.p); got != c.want {
			t.Errorf("Lanes(%v,%v) = %d want %d", c.w, c.p, got, c.want)
		}
	}
}

func TestInstrFLOPs(t *testing.T) {
	if got := (Instr{Op: OpFPFMA, Prec: DP, Width: W256}).FLOPs(); got != 8 {
		t.Errorf("DP AVX256 FMA FLOPs = %d want 8", got)
	}
	if got := (Instr{Op: OpFPAdd, Prec: SP, Width: W512}).FLOPs(); got != 16 {
		t.Errorf("SP AVX512 add FLOPs = %d want 16", got)
	}
	if got := (Instr{Op: OpIntAdd}).FLOPs(); got != 0 {
		t.Errorf("integer FLOPs = %d want 0", got)
	}
}

func TestRunScalarKernelCounts(t *testing.T) {
	// The paper's K_SCAL: loops retiring 24, 48, 96 DP scalar instructions.
	k := BuildFlopsKernel(FlopsKernelSpec{Prec: DP, Width: Scalar})
	c := DefaultCore().Run(k)
	want := uint64(24 + 48 + 96)
	if got := fpInstr(c, DP, Scalar, false); got != want {
		t.Fatalf("DP scalar instrs = %d want %d", got, want)
	}
	if c.FLOPs != want { // scalar non-FMA: 1 FLOP per instruction
		t.Fatalf("FLOPs = %d want %d", c.FLOPs, want)
	}
	if fpInstr(c, DP, Scalar, true) != 0 {
		t.Fatalf("no FMA instructions expected")
	}
}

func TestRunFMAKernelCounts(t *testing.T) {
	// K^256_FMA: loops retiring 12, 24, 48 AVX256 DP FMA instructions,
	// 8 FLOPs each.
	k := BuildFlopsKernel(FlopsKernelSpec{Prec: DP, Width: W256, FMA: true})
	c := DefaultCore().Run(k)
	wantInstr := uint64(12 + 24 + 48)
	if got := fpInstr(c, DP, W256, true); got != wantInstr {
		t.Fatalf("FMA instrs = %d want %d", got, wantInstr)
	}
	if c.FLOPs != 8*wantInstr {
		t.Fatalf("FLOPs = %d want %d", c.FLOPs, 8*wantInstr)
	}
}

func TestLoopOverheadPollutesKernels(t *testing.T) {
	// Every trip charges 2 integer ops and 1 branch, and every block charges
	// a constant prologue: the pollution the paper describes for FP kernels.
	k := BuildFlopsKernel(FlopsKernelSpec{Prec: SP, Width: Scalar})
	c := DefaultCore().Run(k)
	trips := uint64(12 + 24 + 48)
	blocks := uint64(3)
	if c.IntOps != 2*trips+prologueInts*blocks {
		t.Fatalf("IntOps = %d want %d", c.IntOps, 2*trips+prologueInts*blocks)
	}
	if c.Branches != trips+prologueGuards*blocks {
		t.Fatalf("Branches = %d want %d", c.Branches, trips+prologueGuards*blocks)
	}
	// Back-edge taken on all but the last trip of each of the 3 loops; the
	// guard branch falls through.
	if c.TakenBr != trips-3 {
		t.Fatalf("TakenBr = %d want %d", c.TakenBr, trips-3)
	}
	if c.Loads != prologueLoads*blocks {
		t.Fatalf("Loads = %d want %d", c.Loads, prologueLoads*blocks)
	}
}

func TestPrologueBreaksProportionality(t *testing.T) {
	// Total instructions must NOT be an exact multiple of the FP counts
	// across the three loops — this is what makes derived events fail the
	// projection step of the analysis.
	k := BuildFlopsKernel(FlopsKernelSpec{Prec: DP, Width: Scalar})
	core := DefaultCore()
	var instr, fp [3]float64
	for i, b := range k.Blocks {
		c := core.Run(&Kernel{Blocks: []Block{b}})
		instr[i] = float64(c.Instructions)
		fp[i] = float64(fpInstr(c, DP, Scalar, false))
	}
	r0 := instr[0] / fp[0]
	r1 := instr[1] / fp[1]
	if r0 == r1 {
		t.Fatalf("instruction counts exactly proportional to FP counts: ratios %v %v", r0, r1)
	}
}

func TestKernelSpace(t *testing.T) {
	specs := FlopsKernelSpace()
	if len(specs) != 16 {
		t.Fatalf("kernel space size = %d want 16", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name()] {
			t.Fatalf("duplicate kernel %s", s.Name())
		}
		seen[s.Name()] = true
	}
	// Canonical order: first SP scalar non-FMA, ninth is SP scalar FMA.
	if specs[0].Name() != "SP_scalar" || specs[8].Name() != "SP_scalar_FMA" {
		t.Fatalf("canonical order broken: %s, %s", specs[0].Name(), specs[8].Name())
	}
}

func TestExpectedFPInstrs(t *testing.T) {
	e := ExpectedFPInstrs(FlopsKernelSpec{Prec: DP, Width: Scalar})
	if e != [3]float64{24, 48, 96} {
		t.Fatalf("non-FMA expectations = %v", e)
	}
	e = ExpectedFPInstrs(FlopsKernelSpec{Prec: DP, Width: W256, FMA: true})
	if e != [3]float64{12, 24, 48} {
		t.Fatalf("FMA expectations = %v", e)
	}
}

func TestRunMatchesExpectations(t *testing.T) {
	// Simulated counts must agree exactly with the analytic expectations for
	// every kernel in the space — the property the whole analysis rests on.
	core := DefaultCore()
	for _, spec := range FlopsKernelSpace() {
		c := core.Run(BuildFlopsKernel(spec))
		exp := ExpectedFPInstrs(spec)
		var want uint64
		for _, v := range exp {
			want += uint64(v)
		}
		if got := fpInstr(c, spec.Prec, spec.Width, spec.FMA); got != want {
			t.Fatalf("%s: instrs = %d want %d", spec.Name(), got, want)
		}
	}
}

func TestCountsAdd(t *testing.T) {
	a := NewCounts()
	a.FP[FPClass{Prec: SP, Width: Scalar}] = 3
	a.FLOPs = 3
	b := NewCounts()
	b.FP[FPClass{Prec: SP, Width: Scalar}] = 4
	b.IntOps = 5
	a.Add(b)
	if a.FP[FPClass{Prec: SP, Width: Scalar}] != 7 || a.IntOps != 5 || a.FLOPs != 3 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestCycleModelMonotonic(t *testing.T) {
	core := DefaultCore()
	small := core.Run(BuildFlopsKernel(FlopsKernelSpec{Prec: SP, Width: Scalar}))
	// Doubling the work must not reduce cycles.
	k := BuildFlopsKernel(FlopsKernelSpec{Prec: SP, Width: Scalar})
	for i := range k.Blocks {
		k.Blocks[i].Trips *= 2
	}
	big := core.Run(k)
	if big.Cycles <= small.Cycles {
		t.Fatalf("cycles not monotonic: %d <= %d", big.Cycles, small.Cycles)
	}
}

func TestDivideLatencyCharged(t *testing.T) {
	core := DefaultCore()
	noDiv := core.Run(&Kernel{Blocks: []Block{{Body: []Instr{{Op: OpFPAdd, Prec: DP, Width: Scalar}}, Trips: 10}}})
	div := core.Run(&Kernel{Blocks: []Block{{Body: []Instr{{Op: OpFPDiv, Prec: DP, Width: Scalar}}, Trips: 10}}})
	if div.Cycles <= noDiv.Cycles {
		t.Fatalf("divide latency not charged: %d <= %d", div.Cycles, noDiv.Cycles)
	}
}

func TestRunDeterministic(t *testing.T) {
	core := DefaultCore()
	k := BuildFlopsKernel(FlopsKernelSpec{Prec: DP, Width: W512, FMA: true})
	a := core.Run(k)
	b := core.Run(k)
	if a.FLOPs != b.FLOPs || a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Fatalf("simulation not deterministic")
	}
}

// Property: FLOPs scale linearly with trip count for any kernel spec.
func TestFLOPsLinearInTripsProperty(t *testing.T) {
	core := DefaultCore()
	f := func(precBit, fmaBit bool, widthSel uint8, tripsRaw uint8) bool {
		trips := int(tripsRaw%40) + 1
		spec := FlopsKernelSpec{
			Prec:  SP,
			Width: Width(widthSel % 4),
			FMA:   fmaBit,
		}
		if precBit {
			spec.Prec = DP
		}
		body := BuildFlopsKernel(spec).Blocks[0].Body
		k1 := &Kernel{Blocks: []Block{{Body: body, Trips: trips}}}
		k2 := &Kernel{Blocks: []Block{{Body: body, Trips: 2 * trips}}}
		return 2*core.Run(k1).FLOPs == core.Run(k2).FLOPs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: instruction count conservation — total retired equals the sum of
// body instructions plus loop scaffolding.
func TestInstructionConservationProperty(t *testing.T) {
	core := DefaultCore()
	f := func(bodyLen, tripsRaw uint8) bool {
		n := int(bodyLen%8) + 1
		trips := int(tripsRaw%30) + 1
		body := make([]Instr, n)
		for i := range body {
			body[i] = Instr{Op: OpFPAdd, Prec: DP, Width: Scalar}
		}
		c := core.Run(&Kernel{Blocks: []Block{{Body: body, Trips: trips}}})
		// body + per-trip (inc, cmp, branch) + constant block prologue.
		want := uint64(trips)*uint64(n+3) + prologueLoads + prologueInts + prologueGuards
		return c.Instructions == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
