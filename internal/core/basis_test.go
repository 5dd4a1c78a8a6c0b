package core

import (
	"math"
	"testing"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// paperToyBasis reproduces the Section III-A worked example: two kernels
// (K_SCAL with loops of 24/48/96 DP scalar instructions, K^256_FMA with
// 12/24/48 AVX256 FMA instructions) and two ideal events.
func paperToyBasis(t *testing.T) *Basis {
	t.Helper()
	e := mat.FromColumns([][]float64{
		{24, 48, 96, 0, 0, 0}, // DSCAL
		{0, 0, 0, 12, 24, 48}, // D256_FMA
	})
	b, err := NewBasis(
		[]string{"DSCAL", "D256_FMA"},
		[]string{"scal/1", "scal/2", "scal/3", "fma/1", "fma/2", "fma/3"},
		e)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBasisValidation(t *testing.T) {
	e := mat.NewDense(3, 2)
	if _, err := NewBasis([]string{"a"}, []string{"p", "q", "r"}, e); err == nil {
		t.Fatalf("name/column mismatch should fail")
	}
	if _, err := NewBasis([]string{"a", "b"}, []string{"p"}, e); err == nil {
		t.Fatalf("point/row mismatch should fail")
	}
	if _, err := NewBasis([]string{"a", "a"}, []string{"p", "q", "r"}, e); err == nil {
		t.Fatalf("duplicate names should fail")
	}
	wide := mat.NewDense(1, 2)
	if _, err := NewBasis([]string{"a", "b"}, []string{"p"}, wide); err == nil {
		t.Fatalf("underdetermined basis should fail")
	}
}

func TestBasisAccessors(t *testing.T) {
	b := paperToyBasis(t)
	if b.Dim() != 2 || b.Points() != 6 {
		t.Fatalf("Dim/Points = %d/%d", b.Dim(), b.Points())
	}
	if err := b.CheckFullRank(); err != nil {
		t.Fatal(err)
	}
}

func TestBasisExpandPaperExample(t *testing.T) {
	// Equation 1 of the paper: DSCAL + 8*D256_FMA gives the DP FLOPs
	// signature (24,48,96,96,192,384).
	b := paperToyBasis(t)
	got, err := b.Expand([]float64{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{24, 48, 96, 96, 192, 384}
	if !mat.VecEqualApprox(got, want, 1e-12) {
		t.Fatalf("Expand = %v want %v", got, want)
	}
	if _, err := b.Expand([]float64{1}); err == nil {
		t.Fatalf("wrong-length coefficients should fail")
	}
}

func TestBasisRankDeficientDetected(t *testing.T) {
	col := []float64{1, 2, 3}
	e := mat.FromColumns([][]float64{col, col})
	b, err := NewBasis([]string{"a", "b"}, []string{"p", "q", "r"}, e)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckFullRank(); err == nil {
		t.Fatalf("rank deficiency not detected")
	}
}

func TestProjectEventPaperExample(t *testing.T) {
	// The measurement of an ideal "DP FLOPs" event would be the signature
	// itself; projecting it recovers the representation (1, 8).
	b := paperToyBasis(t)
	m := []float64{24, 48, 96, 96, 192, 384}
	proj, err := NewProjector(b)
	if err != nil {
		t.Fatal(err)
	}
	p, err := proj.Project("DP_FLOPS", m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.X[0]-1) > 1e-12 || math.Abs(p.X[1]-8) > 1e-12 {
		t.Fatalf("representation = %v want [1 8]", p.X)
	}
	if p.RelResidual > 1e-12 {
		t.Fatalf("residual = %v want ~0", p.RelResidual)
	}
}

func TestProjectEventUnrepresentable(t *testing.T) {
	// A constant vector is far from the span of the loop-proportional basis.
	b := paperToyBasis(t)
	proj, err := NewProjector(b)
	if err != nil {
		t.Fatal(err)
	}
	p, err := proj.Project("CONST", []float64{5, 5, 5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if p.RelResidual < 0.1 {
		t.Fatalf("constant vector should have a large residual, got %v", p.RelResidual)
	}
}

func TestProjectEventLengthMismatch(t *testing.T) {
	b := paperToyBasis(t)
	proj, err := NewProjector(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proj.Project("bad", []float64{1, 2}); err == nil {
		t.Fatalf("length mismatch should fail")
	}
}

func TestBuildXDropsUnrepresentable(t *testing.T) {
	b := paperToyBasis(t)
	kept := map[string][]float64{
		"SCAL_EVENT": {24, 48, 96, 0, 0, 0},
		"CONST":      {5, 5, 5, 5, 5, 5},
		"FMA_EVENT":  {0, 0, 0, 12, 24, 48},
	}
	order := []string{"SCAL_EVENT", "CONST", "FMA_EVENT"}
	rep, err := BuildXWorkers(b, kept, order, 1e-2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Dropped) != 1 || rep.Dropped[0] != "CONST" {
		t.Fatalf("Dropped = %v", rep.Dropped)
	}
	if len(rep.Order) != 2 {
		t.Fatalf("Order = %v", rep.Order)
	}
	r, c := rep.X.Dims()
	if r != 2 || c != 2 {
		t.Fatalf("X dims = %dx%d want 2x2", r, c)
	}
	// Representations are unit basis vectors.
	if math.Abs(rep.X.At(0, 0)-1) > 1e-12 || math.Abs(rep.X.At(1, 1)-1) > 1e-12 {
		t.Fatalf("X wrong:\n%v", rep.X)
	}
}

func TestBuildXMissingEvent(t *testing.T) {
	b := paperToyBasis(t)
	if _, err := BuildXWorkers(b, map[string][]float64{}, []string{"ghost"}, 1e-2, 0); err == nil {
		t.Fatalf("ghost event should fail")
	}
}

func TestSignatureTablesDimensions(t *testing.T) {
	if len(CPUFlopsBasisSymbols()) != 16 {
		t.Fatalf("CPU basis symbols != 16")
	}
	for _, s := range CPUFlopsSignatures() {
		if len(s.Coeffs) != 16 {
			t.Fatalf("%s has %d coeffs", s.Name, len(s.Coeffs))
		}
	}
	if len(GPUFlopsBasisSymbols()) != 15 {
		t.Fatalf("GPU basis symbols != 15")
	}
	for _, s := range GPUFlopsSignatures() {
		if len(s.Coeffs) != 15 {
			t.Fatalf("%s has %d coeffs", s.Name, len(s.Coeffs))
		}
	}
	if len(BranchBasisSymbols()) != 5 {
		t.Fatalf("branch basis symbols != 5")
	}
	for _, s := range BranchSignatures() {
		if len(s.Coeffs) != 5 {
			t.Fatalf("%s has %d coeffs", s.Name, len(s.Coeffs))
		}
	}
	if len(CacheBasisSymbols()) != 4 {
		t.Fatalf("cache basis symbols != 4")
	}
	for _, s := range CacheSignatures() {
		if len(s.Coeffs) != 4 {
			t.Fatalf("%s has %d coeffs", s.Name, len(s.Coeffs))
		}
	}
}

func TestSignatureValidate(t *testing.T) {
	b := paperToyBasis(t)
	good := Signature{Name: "ok", Coeffs: []float64{1, 8}}
	if err := good.CheckDim(b.Dim()); err != nil {
		t.Fatal(err)
	}
	bad := Signature{Name: "bad", Coeffs: []float64{1}}
	if err := bad.CheckDim(b.Dim()); err == nil {
		t.Fatalf("dimension mismatch should fail")
	}
}

func TestDPFlopsSignatureMatchesSectionIIIB(t *testing.T) {
	// Section III-B: DP FLOPs has representation
	// (0,0,0,0,1,2,4,8,0,0,0,0,2,4,8,16) — which is Table I's "DP Ops.".
	for _, s := range CPUFlopsSignatures() {
		if s.Name != "DP Ops." {
			continue
		}
		want := []float64{0, 0, 0, 0, 1, 2, 4, 8, 0, 0, 0, 0, 2, 4, 8, 16}
		if !mat.VecEqualApprox(s.Coeffs, want, 0) {
			t.Fatalf("DP Ops signature = %v", s.Coeffs)
		}
		return
	}
	t.Fatalf("DP Ops. signature missing")
}
