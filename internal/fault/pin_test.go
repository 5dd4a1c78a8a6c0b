package fault

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
	"time"
)

// pinSpec turns on every kind at every site, with persistence depth, so the
// pinned draws cover each branch of At.
const pinSpec = "seed=7,panic=0.05,corrupt=0.1,transient=0.2,slow=0.1,http503=0.15,timeout=0.1,depth=3,retries=4"

// pinCoords walks every site over small coordinates (the common case) and a
// few large and negative ones, whose integer fields span all eight bytes.
func pinCoords() []Coord {
	var out []Coord
	ords := []int{0, 1, 2, 3, 255, 256, 1 << 20, -1}
	for _, site := range []Site{SiteMeasure, SiteJob, SiteHTTP, SitePeer} {
		for _, name := range []string{"spr-sim", "branch", "POST /v1/analyze", "http://127.0.0.1:7002"} {
			for _, g := range ords {
				for _, rep := range ords[:4] {
					out = append(out, Coord{Site: site, Name: name, Group: g, Rep: rep, Thread: g % 3})
				}
			}
		}
	}
	return out
}

// TestPlanPinned pins every decision a plan makes — the kind At draws on each
// attempt, the corrupt mutations and the injected delays — as a digest of
// their transcript plus a few literal draws. Chaos reports and their goldens
// replay these draws, so a change to the hash's offset, field order,
// separator or finalizer fails here first.
func TestPlanPinned(t *testing.T) {
	spec, err := ParseSpec(pinSpec)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(spec)
	h := sha256.New()
	for _, c := range pinCoords() {
		for attempt := 0; attempt < 4; attempt++ {
			fmt.Fprintf(h, "%s a%d %s\n", c, attempt, p.At(c, attempt))
		}
		for pt := 0; pt < 4; pt++ {
			v, ok := p.CorruptValue(c, "EV:"+c.Name, pt, 100)
			fmt.Fprintf(h, "%s p%d %x %t\n", c, pt, math.Float64bits(v), ok)
		}
		fmt.Fprintf(h, "%s %d\n", c, p.Delay(c))
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "52a55d557f424b702c9293d958208234bd8e0b469b054f32824fb43a0dc96d51"; got != want {
		t.Errorf("plan transcript digest = %s, want %s", got, want)
	}

	c := Coord{Site: SiteMeasure, Name: "spr-sim", Group: 2, Rep: 1, Thread: 0}
	var kinds []Kind
	for g := 0; g < 12; g++ {
		c.Group = g
		kinds = append(kinds, p.At(c, 0))
	}
	if got, want := fmt.Sprint(kinds), "[none none transient none none corrupt transient corrupt transient none none none]"; got != want {
		t.Errorf("At over groups 0..11 = %s, want %s", got, want)
	}
	var delays []time.Duration
	for rep := 0; rep < 6; rep++ {
		delays = append(delays, p.Delay(Coord{Site: SiteHTTP, Name: "POST /v1/analyze", Rep: rep}))
	}
	if got, want := fmt.Sprint(delays), "[500µs 1.5ms 2ms 1.5ms 1ms 1.5ms]"; got != want {
		t.Errorf("Delay over requests 0..5 = %s, want %s", got, want)
	}
}

// TestBackoffPinned pins the retry jitter and the seeds it is keyed by: a
// chaos run's retry schedule replays only while these stay fixed.
func TestBackoffPinned(t *testing.T) {
	seeds := []uint64{SeedFor(), SeedFor(""), SeedFor("job", "job-1"), SeedFor("client", "http://127.0.0.1:8080"), SeedFor("a", "b"), SeedFor("ab", "")}
	if got, want := fmt.Sprintf("%#x", seeds), "[0xe220a8397b1dcdaf 0xf02eadf74110c7d 0xfbe200ad14ac490a 0x3220d41e790832e7 0xef07343f0cfb4007 0xcdd704a7ef86ce74]"; got != want {
		t.Errorf("SeedFor = %s, want %s", got, want)
	}
	var delays []time.Duration
	for _, seed := range []uint64{0, seeds[2], 1 << 63} {
		for attempt := 0; attempt < 5; attempt++ {
			delays = append(delays, BackoffDelay(10*time.Millisecond, 200*time.Millisecond, seed, attempt))
		}
	}
	delays = append(delays, BackoffDelay(time.Millisecond, time.Second, seeds[3], 300))
	if got, want := fmt.Sprint(delays), "[9.947606ms 20.277597ms 56.062917ms 80.137589ms 200ms 5.283566ms 25.553862ms 40.987711ms 55.120091ms 200ms 8.958136ms 26.383987ms 32.091129ms 90.898409ms 94.40926ms 847.712472ms]"; got != want {
		t.Errorf("BackoffDelay = %s, want %s", got, want)
	}
}
