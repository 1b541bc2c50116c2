// Package event is a testdata stub mirroring safeweb/internal/event.
package event

func New(topic string, attrs map[string]string) *Event {
	return &Event{Topic: topic, Attrs: attrs}
}

type Event struct {
	Topic string
	Body  []byte
	Attrs map[string]string
}

func (e *Event) Set(k, v string)     { e.Attrs[k] = v }
func (e *Event) Freeze()             {}
func (e *Event) Clone() *Event       { return &Event{Topic: e.Topic} }
func (e *Event) Release()            {}
func (e *Event) Get(k string) string { return e.Attrs[k] }

// DecodeCache is a goroutine-confined memo table in the real package.
type DecodeCache struct{ m map[string]string }
