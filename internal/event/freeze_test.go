package event

import (
	"errors"
	"testing"

	"safeweb/internal/label"
)

// TestFreezeBlocksSet pins the shared-delivery safety contract: once an
// event is frozen (published), Set must refuse to mutate it, while a
// Clone or a Delivery copy with its own attribute map stays mutable.
func TestFreezeBlocksSet(t *testing.T) {
	e := New("/t", nil)
	e.Freeze()
	//lint:ignore frozenmutate probing the freeze contract: Set on a frozen event must fail with ErrFrozen
	if err := e.Set("k", "v"); !errors.Is(err, ErrFrozen) {
		t.Errorf("Set on frozen event = %v, want ErrFrozen", err)
	}
	if e.Attrs != nil {
		t.Error("failed Set still touched the attribute map")
	}

	c := e.Clone()
	if err := c.Set("k", "v"); err != nil || c.Attr("k") != "v" {
		t.Errorf("Set on clone of frozen event failed: %v", err)
	}

	withAttrs := New("/t", map[string]string{"a": "1"})
	withAttrs.Freeze()
	d := withAttrs.Delivery()
	if err := d.Set("k", "v"); err != nil {
		t.Errorf("Set on per-subscriber delivery copy failed: %v", err)
	}
	if _, ok := withAttrs.Get("k"); ok {
		t.Error("delivery-copy Set leaked into the published event")
	}
}

// TestCloneDropsLabelHeaderMemo guards the federation bridge pattern:
// Clone → replace Labels → marshal must emit the NEW label set, not a
// stale memo from the original's publish.
func TestCloneDropsLabelHeaderMemo(t *testing.T) {
	src := New("/t", nil, label.Conf("east.nhs.uk/agg"))
	src.Freeze() // memoises the label header, as Broker.Publish does

	out := src.Clone()
	out.Labels = label.NewSet(label.Conf("west.nhs.uk/agg"))
	if got := out.LabelHeader(); got != "label:conf:west.nhs.uk/agg" {
		t.Errorf("label header = %q, want re-labelled set", got)
	}

	// The original still marshals from its memo.
	if got := src.LabelHeader(); got != "label:conf:east.nhs.uk/agg" {
		t.Errorf("source label header = %q", got)
	}
}
