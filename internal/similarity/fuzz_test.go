package similarity

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzFeatures is the row width FuzzCluster decodes; 8 bytes per value.
const fuzzFeatures = 4

// fuzzMaxKernels bounds the decoded kernel count so the fuzzer spends its
// budget on value shapes (NaN/±Inf/zero-variance/duplicates), not on large-n
// inputs.
const fuzzMaxKernels = 64

// FuzzCluster feeds arbitrary measurement vectors — NaN, ±Inf, zero-variance
// columns, duplicates — through the similarity path. Every input must either
// classify into a well-formed partition or return an error; a panic fails.
func FuzzCluster(f *testing.F) {
	row := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	cat := func(rows ...[]byte) []byte {
		var b []byte
		for _, r := range rows {
			b = append(b, r...)
		}
		return b
	}
	f.Add([]byte{}, 0.5)
	f.Add(cat(row(0, 0, 0, 0), row(0, 0, 0, 0)), 0.9)                       // zero rows
	f.Add(cat(row(1, 2, 3, 4), row(2, 4, 6, 8), row(1, 2, 3, 4)), 0.999)    // proportional + duplicate
	f.Add(cat(row(7, 0, 1, 2), row(7, 0, 2, 4), row(7, 0, -3, 1)), 0.99)    // zero-variance columns
	f.Add(cat(row(math.NaN(), 1, 1, 1), row(1, 1, 1, 1)), 0.5)              // NaN
	f.Add(cat(row(math.Inf(1), 1, 1, 1), row(1, math.Inf(-1), 1, 1)), 0.99) // ±Inf
	f.Add(cat(row(1, 1, 1, 1)), 1.0)                                        // threshold boundary
	f.Add(cat(row(1, 2, 3, 4)), math.NaN())                                 // bad threshold

	f.Fuzz(func(t *testing.T, data []byte, thr float64) {
		n := len(data) / (8 * fuzzFeatures)
		if n > fuzzMaxKernels {
			n = fuzzMaxKernels
		}
		vectors := make([][]float64, n)
		for i := 0; i < n; i++ {
			v := make([]float64, fuzzFeatures)
			for j := 0; j < fuzzFeatures; j++ {
				off := (i*fuzzFeatures + j) * 8
				v[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			}
			vectors[i] = v
		}
		res, err := Cluster(vectors, thr)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		// A successful result must be a well-formed partition.
		seen := make([]bool, n)
		for c, members := range res.Clusters {
			if len(members) == 0 {
				t.Fatalf("empty cluster %d", c)
			}
			for k, i := range members {
				if i < 0 || i >= n {
					t.Fatalf("cluster %d holds out-of-range kernel %d", c, i)
				}
				if seen[i] {
					t.Fatalf("kernel %d in two clusters", i)
				}
				seen[i] = true
				if res.Assign[i] != c {
					t.Fatalf("assign[%d] = %d, member of %d", i, res.Assign[i], c)
				}
				if k > 0 && members[k-1] >= i {
					t.Fatalf("cluster %d members not ascending: %v", c, members)
				}
			}
			if res.Selected[c] != members[0] {
				t.Fatalf("selected[%d] = %d, cluster minimum %d", c, res.Selected[c], members[0])
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("kernel %d missing from partition", i)
			}
		}
	})
}
