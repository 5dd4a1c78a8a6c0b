package cachesim

import "fmt"

// Region identifies which level of the hierarchy a sweep point targets.
type Region uint8

const (
	RegionL1 Region = iota
	RegionL2
	RegionL3
	RegionMem
)

// String returns the plot label used in the paper's Figure 3 x-axis.
func (r Region) String() string {
	switch r {
	case RegionL1:
		return "L1"
	case RegionL2:
		return "L2"
	case RegionL3:
		return "L3"
	default:
		return "M"
	}
}

// SweepPoint is one configuration of the CAT data-cache sweep: a pointer
// chain sized to land inside one region, at one stride.
type SweepPoint struct {
	Region      Region
	StrideBytes int
	Elements    int
}

// Name renders e.g. "L2/stride=64B/n=2867".
func (p SweepPoint) Name() string {
	return fmt.Sprintf("%s/stride=%dB/n=%d", p.Region, p.StrideBytes, p.Elements)
}

// effectiveLines returns how many lines of a level a chase at the given
// stride can actually use: strides wider than the line size skip sets,
// halving (etc.) the usable capacity.
func effectiveLines(cfg LevelConfig, stride int) int {
	lines := cfg.Lines()
	if stride > cfg.LineSize {
		lines = lines * cfg.LineSize / stride
	}
	return lines
}

// BuildSweep constructs the CAT data-cache sweep for a hierarchy config:
// for each stride, two points well inside each cache level (at 35% and 70%
// of the level's effective capacity) and two points far beyond the last
// level (4x and 8x). Points whose footprint would not clear the previous
// level are dropped, which can happen for aggressive strides on small test
// hierarchies.
func BuildSweep(cfgs []LevelConfig, strides []int) []SweepPoint {
	var points []SweepPoint
	for _, stride := range strides {
		prevLines := 0
		for li, cfg := range cfgs {
			eff := effectiveLines(cfg, stride)
			for _, frac := range []float64{0.35, 0.70} {
				n := int(frac * float64(eff))
				if n <= 2*prevLines || n < 2 {
					continue // would not thrash the level above
				}
				points = append(points, SweepPoint{
					Region:      Region(li),
					StrideBytes: stride,
					Elements:    n,
				})
			}
			prevLines = eff
		}
		lastEff := effectiveLines(cfgs[len(cfgs)-1], stride)
		for _, mult := range []int{4, 8} {
			points = append(points, SweepPoint{
				Region:      RegionMem,
				StrideBytes: stride,
				Elements:    mult * lastEff,
			})
		}
	}
	return points
}

// RunSweepPointTLB executes one sweep point on a fresh hierarchy, with an
// optional TLB hierarchy (pass nil tlbCfgs to run without translation
// modelling), and returns its steady-state rates. It is the per-access
// reference engine that RunSweepTasks must match bit for bit; only tests
// run it.
func RunSweepPointTLB(cfgs []LevelConfig, tlbCfgs []TLBConfig, p SweepPoint, seed int64, passes int) (*ChaseResult, error) {
	h, err := NewHierarchy(cfgs)
	if err != nil {
		return nil, err
	}
	var tlb *TLBHierarchy
	if len(tlbCfgs) > 0 {
		tlb, err = NewTLBHierarchy(tlbCfgs)
		if err != nil {
			return nil, err
		}
	}
	return RunChaseWithTLB(h, tlb, ChaseConfig{
		Elements:    p.Elements,
		StrideBytes: p.StrideBytes,
		Seed:        seed,
	}, passes)
}
