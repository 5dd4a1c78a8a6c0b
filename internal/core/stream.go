package core

// Streaming noise analysis: at the scale the paper motivates (hundreds of
// thousands of raw events), holding every event's full repetition history in
// one MeasurementSet is wasteful — the noise filter only needs each event's
// repetition vectors once. EventSource lets a collector hand events to the
// filter one at a time (e.g. one multiplexing group at a time), so peak
// memory is bounded by the survivors plus one group, not the whole catalog.

// EventSource produces events one at a time by calling yield for each; it
// stops early if yield returns an error. The vectors are the event's
// per-repetition measurement vectors (already median-reduced over threads if
// applicable).
type EventSource func(yield func(event string, vectors [][]float64) error) error

// FilterNoiseStream is FilterNoiseWith over a streaming source: the same
// per-event rule, applied as each event arrives. The returned report is
// identical to the batch version's for the same data in the same order, and
// only kept events retain their (averaged) vectors.
func FilterNoiseStream(source EventSource, tau float64, measure NoiseMeasure) (*NoiseReport, error) {
	report := &NoiseReport{Kept: make(map[string][]float64), Tau: tau}
	err := source(func(event string, vectors [][]float64) error {
		report.record(event, judgeNoise(vectors, tau, measure))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return report, nil
}

// SetSource adapts a MeasurementSet into an EventSource (in measurement
// order), for callers that want the streaming API uniformly.
func SetSource(set *MeasurementSet) EventSource {
	return func(yield func(string, [][]float64) error) error {
		for _, event := range set.Order {
			if err := yield(event, set.RepVectors(event)); err != nil {
				return err
			}
		}
		return nil
	}
}
