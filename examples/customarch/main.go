// Custom architecture: the library is not limited to the shipped platforms.
// This example defines a fictional vector CPU ("vcpu") whose raw events have
// unknown semantics — one counts vector *element* operations rather than
// instructions, one merges two concepts, several are noise or duplicates —
// then builds a custom expectation basis from three microkernels and lets
// the analysis discover what each event really measures and how to compose
// a "Vector Instructions" metric from them.
//
// This mirrors how the methodology ports to a new machine: write kernels
// with known behaviour, measure everything, analyze.
//
// Run with: go run ./examples/customarch
package main

import (
	"fmt"
	"log"

	"github.com/perfmetrics/eventlens"
)

func main() {
	log.SetFlags(0)

	// The fictional machine runs three kernels with known ground truth:
	// k1 does 100 scalar ops; k2 does 40 vector instructions (x8 lanes);
	// k3 mixes both. Two ideal events: scalar instructions, vector
	// instructions.
	scalarTruth := []float64{100, 0, 50}
	vectorTruth := []float64{0, 40, 20}

	// The expectation basis: ideal events over the three kernels.
	basis, err := eventlens.NewBasis(
		[]string{"SCALAR", "VECTOR"},
		[]string{"k1", "k2", "k3"},
		eventlens.MatrixFromColumns([][]float64{scalarTruth, vectorTruth}),
	)
	if err != nil {
		log.Fatal(err)
	}

	// The machine's undocumented raw events, as measured over the kernels
	// (in a real port these come from the PMU; here we write them down).
	set := eventlens.NewMeasurementSet("custom", "vcpu", []string{"k1", "k2", "k3"})
	add := func(name string, reps ...[]float64) {
		for r, v := range reps {
			if err := set.Add(name, eventlens.Measurement{Rep: r, Vector: v}); err != nil {
				log.Fatal(err)
			}
		}
	}
	// VPU_ELEMS counts vector lane operations: 8 per vector instruction.
	add("VPU_ELEMS", []float64{0, 320, 160}, []float64{0, 320, 160})
	// ALU_OPS counts scalar ops.
	add("ALU_OPS", []float64{100, 0, 50}, []float64{100, 0, 50})
	// RETIRED_ALL merges both concepts.
	add("RETIRED_ALL", []float64{100, 40, 70}, []float64{100, 40, 70})
	// CLK is noisy cycles: useless, and the noise filter must say so.
	add("CLK", []float64{210, 130, 180}, []float64{260, 110, 150})
	// DUP is a scaled duplicate of ALU_OPS: no new information.
	add("DUP", []float64{200, 0, 100}, []float64{200, 0, 100})
	// TLB_MISS never fires on these kernels: irrelevant.
	add("TLB_MISS", []float64{0, 0, 0}, []float64{0, 0, 0})

	pipe := &eventlens.Pipeline{Basis: basis, Config: eventlens.Config{
		Tau:           1e-6,
		Alpha:         1e-3,
		ProjectionTol: 1e-2,
		RoundTol:      0.05,
	}}
	res, err := pipe.Analyze(set)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(eventlens.FormatNoiseSummary(res.Noise))
	fmt.Printf("discarded as irrelevant: %v\n", res.Noise.Discarded)
	fmt.Printf("filtered as noisy:       %v\n", res.Noise.Filtered)
	fmt.Print(eventlens.FormatSelection(res))

	// What does each selected event measure? Its representation — its
	// column of Xhat — says.
	for j, name := range res.SelectedEvents {
		fmt.Printf("  %s = %.3g x SCALAR + %.3g x VECTOR\n", name, res.Xhat.At(0, j), res.Xhat.At(1, j))
	}

	// Compose "Vector Instructions" — the analysis figures out the 1/8
	// scaling of the element counter on its own.
	def, err := res.DefineMetric(eventlens.Signature{Name: "Vector Instrs.", Coeffs: []float64{0, 1}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(def)
}
