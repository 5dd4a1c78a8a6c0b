package cpusim

import "testing"

func TestTriadKernelCounts(t *testing.T) {
	c := DefaultCore().Run(TriadKernel(100))
	// One AVX512 DP FMA per trip: 16 FLOPs each.
	if got := fpInstr(c, DP, W512, true); got != 100 {
		t.Fatalf("FMA instrs = %d want 100", got)
	}
	if c.FLOPs != 1600 {
		t.Fatalf("FLOPs = %d want 1600", c.FLOPs)
	}
	if c.Loads != 200+prologueLoads || c.Stores != 100 {
		t.Fatalf("memory ops wrong: %d loads, %d stores", c.Loads, c.Stores)
	}
}

func TestDaxpyKernelCounts(t *testing.T) {
	c := DefaultCore().Run(DaxpyKernel(50))
	if got := fpInstr(c, DP, W256, true); got != 50 {
		t.Fatalf("FMA instrs = %d", got)
	}
	dp, sp := TrueOps(c)
	if dp != 50*8 || sp != 0 { // 4 lanes x 2 ops
		t.Fatalf("ops = %v/%v want 400/0", dp, sp)
	}
}

func TestStencilKernelCounts(t *testing.T) {
	c := DefaultCore().Run(StencilKernel(40))
	if got := fpInstr(c, SP, W256, false); got != 120 { // 3 per trip
		t.Fatalf("SP instrs = %d want 120", got)
	}
	dp, sp := TrueOps(c)
	if dp != 0 || sp != 120*8 {
		t.Fatalf("ops = %v/%v want 0/960", dp, sp)
	}
}

func TestMixedPrecisionKernelOps(t *testing.T) {
	c := DefaultCore().Run(MixedPrecisionKernel(60))
	dp, sp := TrueOps(c)
	// Block 1 (60 trips): DP512 FMA = 16 ops, SP128 mul = 4 ops, DP scalar
	// add = 1 op. Block 2 (30 trips): SP512 add = 16 ops, SP scalar FMA = 2.
	wantDP := 60.0 * (16 + 1)
	wantSP := 60.0*4 + 30.0*(16+2)
	if dp != wantDP || sp != wantSP {
		t.Fatalf("ops = %v/%v want %v/%v", dp, sp, wantDP, wantSP)
	}
}

func TestDotKernelScalarFMA(t *testing.T) {
	c := DefaultCore().Run(DotKernel(25))
	if got := fpInstr(c, DP, Scalar, true); got != 25 {
		t.Fatalf("scalar FMA instrs = %d", got)
	}
	dp, _ := TrueOps(c)
	if dp != 50 { // scalar FMA = 2 ops
		t.Fatalf("dp ops = %v want 50", dp)
	}
}

func TestTrueOpsEmpty(t *testing.T) {
	dp, sp := TrueOps(NewCounts())
	if dp != 0 || sp != 0 {
		t.Fatalf("empty counts should have zero ops")
	}
}
