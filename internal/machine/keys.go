package machine

import "fmt"

// Canonical ground-truth stat keys. The workload drivers in internal/cat
// populate these; event response models read them. Missing keys read as
// zero.
const (
	// Generic CPU activity.
	KeyInstr    = "cpu.instr"
	KeyCycles   = "cpu.cycles"
	KeyIntOps   = "cpu.int"
	KeyLoads    = "cpu.loads"
	KeyStores   = "cpu.stores"
	KeyCPUFlops = "cpu.flops"

	// Branching unit (populated by both the branch and FP benchmarks; the
	// latter only sees loop scaffolding branches).
	KeyBrCE     = "br.ce"     // conditional executed
	KeyBrCR     = "br.cr"     // conditional retired
	KeyBrTaken  = "br.taken"  // conditional retired taken
	KeyBrDirect = "br.direct" // unconditional direct retired
	KeyBrMisp   = "br.misp"   // mispredicted retired

	// Data cache demand activity (per-access rates or raw counts; the
	// response models are linear either way).
	KeyL1Hit  = "cache.l1.hit"
	KeyL1Miss = "cache.l1.miss"
	KeyL2Hit  = "cache.l2.hit"
	KeyL2Miss = "cache.l2.miss"
	KeyL3Hit  = "cache.l3.hit"
	KeyL3Miss = "cache.l3.miss"
	KeyMemAcc = "cache.mem"
	KeyAccess = "cache.access"

	// Translation activity (populated by the data-cache benchmark's TLB
	// model).
	KeyDTLBMiss = "tlb.l1.miss"
	KeySTLBMiss = "tlb.l2.miss"
	KeyWalks    = "tlb.walks"

	// GPU activity.
	KeyGPUValuAll = "gpu.valu.all"
	KeyGPUSalu    = "gpu.salu"
	KeyGPUWaves   = "gpu.waves"
	KeyGPUCycles  = "gpu.cycles"
	KeyGPUFlops   = "gpu.flops"
)

// KeyUniverse returns every ground-truth stat key a workload simulator can
// populate, in a fixed deterministic order: the named keys above plus the
// full FPKey and GPUValuKey families. FromDef, and NewRegistry for a loaded
// definition, reject a definition whose response or documentation terms
// name a key outside this universe: such a term would read zero on every
// benchmark, so it is an authoring mistake.
func KeyUniverse() []string {
	keys := []string{
		KeyInstr, KeyCycles, KeyIntOps, KeyLoads, KeyStores, KeyCPUFlops,
		KeyBrCE, KeyBrCR, KeyBrTaken, KeyBrDirect, KeyBrMisp,
		KeyL1Hit, KeyL1Miss, KeyL2Hit, KeyL2Miss, KeyL3Hit, KeyL3Miss,
		KeyMemAcc, KeyAccess,
		KeyDTLBMiss, KeySTLBMiss, KeyWalks,
		KeyGPUValuAll, KeyGPUSalu, KeyGPUWaves, KeyGPUCycles, KeyGPUFlops,
	}
	for _, prec := range []string{"sp", "dp"} {
		for _, width := range []string{"scalar", "128", "256", "512"} {
			keys = append(keys, FPKey(prec, width, false), FPKey(prec, width, true))
		}
	}
	for _, op := range []string{"add", "sub", "mul", "trans", "fma"} {
		for _, prec := range []string{"f16", "f32", "f64"} {
			keys = append(keys, GPUValuKey(op, prec))
		}
	}
	return keys
}

// FPKey returns the stat key for a CPU floating-point instruction class,
// e.g. FPKey("dp", "256", true) -> "cpu.fp.dp.256.fma".
func FPKey(prec, width string, fma bool) string {
	k := fmt.Sprintf("cpu.fp.%s.%s", prec, width)
	if fma {
		k += ".fma"
	}
	return k
}

// GPUValuKey returns the stat key for a GPU VALU instruction class,
// e.g. GPUValuKey("fma", "f64") -> "gpu.valu.fma.f64".
func GPUValuKey(op, prec string) string {
	return fmt.Sprintf("gpu.valu.%s.%s", op, prec)
}
