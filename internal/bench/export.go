package bench

import (
	"fmt"

	"safeweb/internal/event"
)

// Pipeline is the exported handle to the synthetic backend pipeline, for
// the repository-level testing.B benchmarks.
type Pipeline struct {
	p *backendPipeline
}

// NewPipelineForBench builds the producer→relay→sink pipeline and returns
// it with its completion channel (one signal per event that reaches the
// sink).
func NewPipelineForBench(network bool) (*Pipeline, <-chan struct{}, error) {
	p, err := newBackendPipeline(network)
	if err != nil {
		return nil, nil, err
	}
	return &Pipeline{p: p}, p.done, nil
}

// Publish sends one benchmark event, labelled when tracking is set.
func (p *Pipeline) Publish(seq int, tracking bool) error {
	return p.p.publish(seq, tracking)
}

// Stop tears the pipeline down.
func (p *Pipeline) Stop() { p.p.stop() }

// StompRoundTripForBench carries a representative labelled event n times
// through both wire hops of the networked pipeline on the live codec (see
// wireHops). Every iteration builds a fresh event, so the image memos
// cannot hide the encode. It returns the first error.
func StompRoundTripForBench(n int) error {
	if n < 0 {
		return fmt.Errorf("bench: negative iteration count")
	}
	labels := benchLabels()
	wire := newWireHops()
	for i := 0; i < n; i++ {
		ev := event.New("/bench", map[string]string{"seq": "1"}, labels...)
		ev.Body = benchBody
		if err := wire.run(ev); err != nil {
			return err
		}
	}
	return nil
}
