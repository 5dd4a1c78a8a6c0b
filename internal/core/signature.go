package core

import "fmt"

// Signature is the handcrafted expectation-space representation of a
// performance metric (Section III-A): what an ideal event measuring the
// metric would read, expressed in the coordinates of an expectation basis.
type Signature struct {
	// Name is the metric, e.g. "DP Ops." or "L2 Misses.".
	Name string `json:"name"`
	// Coeffs are the basis coordinates, in the basis's column order.
	Coeffs []float64 `json:"coeffs"`
}

// CheckDim checks that the signature has one coefficient per basis
// dimension, dim: the rows of every Xhat over that basis. DefineMetric
// returns its error, so callers can reject a signature before analysing.
func (s Signature) CheckDim(dim int) error {
	if len(s.Coeffs) != dim {
		return fmt.Errorf("core: signature %q has %d coefficients, Xhat has %d rows",
			s.Name, len(s.Coeffs), dim)
	}
	return nil
}

// CPUFlopsBasisSymbols returns the 16 ideal-event symbols of the CPU FLOPs
// expectation basis in the paper's canonical order:
// SP widths, DP widths, then the FMA variants of each.
func CPUFlopsBasisSymbols() []string {
	return []string{
		"SSCAL", "S128", "S256", "S512",
		"DSCAL", "D128", "D256", "D512",
		"SSCAL_FMA", "S128_FMA", "S256_FMA", "S512_FMA",
		"DSCAL_FMA", "D128_FMA", "D256_FMA", "D512_FMA",
	}
}

// CPUFlopsSignatures returns the metric signatures of the paper's Table I.
// Note the convention the table encodes: instruction metrics count FMA
// instructions twice (matching the semantics of the FP_ARITH events they
// will be composed from), while operation metrics weight each ideal event by
// its FLOPs per instruction.
func CPUFlopsSignatures() []Signature {
	return []Signature{
		{Name: "SP Instrs.", Coeffs: []float64{1, 1, 1, 1, 0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 0}},
		{Name: "SP Ops.", Coeffs: []float64{1, 4, 8, 16, 0, 0, 0, 0, 2, 8, 16, 32, 0, 0, 0, 0}},
		{Name: "SP FMA Instrs.", Coeffs: []float64{0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 0}},
		{Name: "DP Instrs.", Coeffs: []float64{0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 2, 2, 2, 2}},
		{Name: "DP Ops.", Coeffs: []float64{0, 0, 0, 0, 1, 2, 4, 8, 0, 0, 0, 0, 2, 4, 8, 16}},
		{Name: "DP FMA Instrs.", Coeffs: []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2}},
	}
}

// GPUFlopsBasisSymbols returns the 15 ideal-event symbols of the GPU FLOPs
// basis: operations (Add, Sub, Mul, Sqrt/transcendental, FMA) by precision
// (Half, Single, Double), precision fastest.
func GPUFlopsBasisSymbols() []string {
	var out []string
	for _, op := range []string{"A", "S", "M", "SQ", "F"} {
		for _, p := range []string{"H", "S", "D"} {
			out = append(out, op+p)
		}
	}
	return out
}

// GPUFlopsSignatures returns the metric signatures of the paper's Table II.
// FMA entries are 2 because the kernels issue instructions and an FMA is two
// arithmetic operations per instruction.
func GPUFlopsSignatures() []Signature {
	return []Signature{
		{Name: "HP Add Ops.", Coeffs: []float64{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{Name: "HP Sub Ops.", Coeffs: []float64{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{Name: "HP Add and Sub Ops.", Coeffs: []float64{1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{Name: "All HP Ops.", Coeffs: []float64{1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0}},
		{Name: "All SP Ops.", Coeffs: []float64{0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0}},
		{Name: "All DP Ops.", Coeffs: []float64{0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 2}},
	}
}

// BranchBasisSymbols returns the 5 ideal-event symbols of the branching
// basis: Conditional Executed, Conditional Retired, Taken, Direct
// (unconditional), Mispredicted.
func BranchBasisSymbols() []string {
	return []string{"CE", "CR", "T", "D", "M"}
}

// BranchSignatures returns the metric signatures of the paper's Table III.
func BranchSignatures() []Signature {
	return []Signature{
		{Name: "Unconditional Branches.", Coeffs: []float64{0, 0, 0, 1, 0}},
		{Name: "Conditional Branches Taken.", Coeffs: []float64{0, 0, 1, 0, 0}},
		{Name: "Conditional Branches Not Taken.", Coeffs: []float64{0, 1, -1, 0, 0}},
		{Name: "Mispredicted Branches.", Coeffs: []float64{0, 0, 0, 0, 1}},
		{Name: "Correctly Predicted Branches.", Coeffs: []float64{0, 1, 0, 0, -1}},
		{Name: "Conditional Branches Retired.", Coeffs: []float64{0, 1, 0, 0, 0}},
		{Name: "Conditional Branches Executed.", Coeffs: []float64{1, 0, 0, 0, 0}},
	}
}

// CacheBasisSymbols returns the 4 ideal-event symbols of the data-cache
// basis: L1 Demand Misses, L1 Demand Hits, L2 Demand Hits, L3 Demand Hits.
func CacheBasisSymbols() []string {
	return []string{"L1DM", "L1DH", "L2DH", "L3DH"}
}

// CacheSignatures returns the metric signatures of the paper's Table IV.
func CacheSignatures() []Signature {
	return []Signature{
		{Name: "L1 Misses.", Coeffs: []float64{1, 0, 0, 0}},
		{Name: "L1 Hits.", Coeffs: []float64{0, 1, 0, 0}},
		{Name: "L1 Reads.", Coeffs: []float64{1, 1, 0, 0}},
		{Name: "L2 Hits.", Coeffs: []float64{0, 0, 1, 0}},
		{Name: "L2 Misses.", Coeffs: []float64{1, 0, -1, 0}},
		{Name: "L3 Hits.", Coeffs: []float64{0, 0, 0, 1}},
	}
}
