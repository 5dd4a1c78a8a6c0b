// Package cpusim simulates a CPU core executing instruction-stream
// microkernels, the substrate underneath the CAT CPU-FLOPs benchmark.
//
// The simulator retires typed instructions (floating-point operations of a
// given precision, vector width and FMA-ness, integer ALU operations,
// branches, loads and stores) and maintains the architectural counters a
// performance-monitoring unit would expose: per-class FP instruction counts,
// FLOP counts, total instructions, and a simple port-pressure cycle model.
//
// Kernels follow the CAT structure (Fig. 1 of the paper): a kernel is a
// sequence of loop blocks, each with a fixed body repeated a known number of
// times, plus the loop-header overhead (counter increment, compare, backward
// branch) that pollutes FP kernels with integer and branch activity exactly
// as the paper describes.
package cpusim

import "fmt"

// Precision of a floating-point instruction.
type Precision uint8

const (
	SP Precision = iota // single precision (32-bit)
	DP                  // double precision (64-bit)
)

// String returns "SP" or "DP".
func (p Precision) String() string {
	if p == SP {
		return "SP"
	}
	return "DP"
}

// Width is the vector width of a floating-point instruction.
type Width uint8

const (
	Scalar Width = iota
	W128
	W256
	W512
)

// String returns a short width label.
func (w Width) String() string {
	switch w {
	case Scalar:
		return "scalar"
	case W128:
		return "128"
	case W256:
		return "256"
	default:
		return "512"
	}
}

// Lanes returns the number of elements a vector of this width holds at the
// given precision (1 for scalar).
func (w Width) Lanes(p Precision) int {
	var bits int
	switch w {
	case Scalar:
		return 1
	case W128:
		bits = 128
	case W256:
		bits = 256
	case W512:
		bits = 512
	}
	if p == SP {
		return bits / 32
	}
	return bits / 64
}

// Op is an instruction operation.
type Op uint8

const (
	OpFPAdd  Op = iota // floating-point add/sub
	OpFPMul            // floating-point multiply
	OpFPFMA            // fused multiply-add (two FLOPs per lane)
	OpFPDiv            // floating-point divide
	OpIntAdd           // integer ALU
	OpIntCmp           // integer compare
	OpBranch           // conditional branch
	OpLoad             // memory load
	OpStore            // memory store
	OpNop              // no operation
)

// IsFP reports whether the op retires on a floating-point unit.
func (o Op) IsFP() bool {
	return o == OpFPAdd || o == OpFPMul || o == OpFPFMA || o == OpFPDiv
}

// Instr is a single typed instruction.
type Instr struct {
	Op    Op
	Prec  Precision
	Width Width
}

// FLOPs returns the number of floating-point operations the instruction
// performs (0 for non-FP instructions).
func (in Instr) FLOPs() int {
	if !in.Op.IsFP() {
		return 0
	}
	lanes := in.Width.Lanes(in.Prec)
	if in.Op == OpFPFMA {
		return 2 * lanes
	}
	return lanes
}

// FPClass identifies a floating-point instruction class as the PMU sees it.
type FPClass struct {
	Prec  Precision
	Width Width
	FMA   bool
}

// String renders e.g. "DP/256/FMA" or "SP/scalar".
func (c FPClass) String() string {
	s := fmt.Sprintf("%s/%s", c.Prec, c.Width)
	if c.FMA {
		s += "/FMA"
	}
	return s
}

// Block is a loop: a body of instructions executed Trips times.
type Block struct {
	Body  []Instr
	Trips int
}

// Kernel is a named sequence of loop blocks.
type Kernel struct {
	Name   string
	Blocks []Block
}

// Counts holds the architectural counters after executing a workload.
type Counts struct {
	FP           map[FPClass]uint64 // retired FP instructions per class
	FLOPs        uint64             // total floating-point operations
	IntOps       uint64             // retired integer ALU operations
	Branches     uint64             // retired branches (loop back-edges etc.)
	TakenBr      uint64             // retired taken branches
	Loads        uint64
	Stores       uint64
	Instructions uint64 // total retired instructions
	Cycles       uint64 // port-pressure cycle model
}

// NewCounts returns a zeroed counter set.
func NewCounts() *Counts {
	return &Counts{FP: make(map[FPClass]uint64)}
}

// Add accumulates other into c.
func (c *Counts) Add(other *Counts) {
	for k, v := range other.FP {
		c.FP[k] += v
	}
	c.FLOPs += other.FLOPs
	c.IntOps += other.IntOps
	c.Branches += other.Branches
	c.TakenBr += other.TakenBr
	c.Loads += other.Loads
	c.Stores += other.Stores
	c.Instructions += other.Instructions
	c.Cycles += other.Cycles
}

// Core models the execution resources of a single core.
type Core struct {
	// FPPorts is the number of FP execution ports (issue throughput).
	FPPorts int
	// ALUPorts is the number of integer ALU ports.
	ALUPorts int
	// LoadPorts is the number of load ports.
	LoadPorts int
	// IssueWidth caps total instructions issued per cycle.
	IssueWidth int
	// DivLatency is the penalty charged per FP divide.
	DivLatency int
}

// DefaultCore returns a Sapphire-Rapids-flavoured core configuration.
func DefaultCore() *Core {
	return &Core{FPPorts: 2, ALUPorts: 4, LoadPorts: 2, IssueWidth: 6, DivLatency: 14}
}

// Per-block prologue charges: every loop block executes a constant setup
// sequence once (loading constants into registers, zeroing accumulators, and
// an entry guard branch). This is what real CAT microkernels look like, and
// it is load-bearing for the analysis: the constant term breaks the exact
// proportionality between derived events (total instructions, uops, loads)
// and the FP expectation basis, so those events fail the projection step
// instead of polluting the QRCP input.
const (
	prologueLoads  = 4
	prologueInts   = 4
	prologueGuards = 1 // entry guard branch, falls through (not taken)
)

// Run executes the kernel once and returns its counters. The loop scaffolding
// of each block (per trip: one counter increment, one compare, one backward
// conditional branch — taken on every trip except the last; per block: a
// constant prologue) is charged automatically, which is what makes integer
// and branch events respond to FP kernels exactly as the paper notes in
// Section II.
func (c *Core) Run(k *Kernel) *Counts {
	total := NewCounts()
	for _, b := range k.Blocks {
		total.Add(c.runBlock(&b))
	}
	return total
}

func (c *Core) runBlock(b *Block) *Counts {
	counts := NewCounts()
	var fpN, aluN, loadN, storeN, divN uint64
	// Block prologue. The guard branch falls through (not taken), which
	// keeps taken-branch counts from being exactly proportional to the FP
	// work — real kernels are never that clean, and taken-branch events
	// must fail the basis projection rather than sneak into the QRCP.
	counts.Loads += prologueLoads
	counts.IntOps += prologueInts
	counts.Branches += prologueGuards
	counts.Instructions += prologueLoads + prologueInts + prologueGuards
	loadN += prologueLoads
	aluN += prologueInts
	for trip := 0; trip < b.Trips; trip++ {
		for _, in := range b.Body {
			counts.Instructions++
			switch {
			case in.Op.IsFP():
				counts.FP[FPClass{Prec: in.Prec, Width: in.Width, FMA: in.Op == OpFPFMA}]++
				counts.FLOPs += uint64(in.FLOPs())
				fpN++
				if in.Op == OpFPDiv {
					divN++
				}
			case in.Op == OpIntAdd || in.Op == OpIntCmp:
				counts.IntOps++
				aluN++
			case in.Op == OpBranch:
				counts.Branches++
				counts.TakenBr++ // body branches modelled as taken
			case in.Op == OpLoad:
				counts.Loads++
				loadN++
			case in.Op == OpStore:
				counts.Stores++
				storeN++
			}
		}
		// Loop scaffolding: i++, cmp, backward branch.
		counts.IntOps += 2
		counts.Instructions += 3
		counts.Branches++
		if trip != b.Trips-1 {
			counts.TakenBr++
		}
		aluN += 2
	}
	counts.Cycles = c.cycleModel(counts.Instructions, fpN, aluN, loadN, storeN, counts.Branches, divN)
	return counts
}

// cycleModel charges cycles from the most contended resource plus divide
// latency: a deterministic throughput bound, not a timing simulator.
func (c *Core) cycleModel(instrs, fp, alu, load, store, br, div uint64) uint64 {
	cy := ceilDiv(instrs, uint64(c.IssueWidth))
	if v := ceilDiv(fp, uint64(c.FPPorts)); v > cy {
		cy = v
	}
	if v := ceilDiv(alu, uint64(c.ALUPorts)); v > cy {
		cy = v
	}
	if v := ceilDiv(load+store, uint64(c.LoadPorts)); v > cy {
		cy = v
	}
	if br > cy {
		cy = br
	}
	return cy + div*uint64(c.DivLatency)
}

func ceilDiv(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}
