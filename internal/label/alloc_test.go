package label

import "testing"

// TestSetStringAllocs pins the wire-rendering cost of label sets. The
// single-label case — by far the most common on events — must render with
// just the one URI concatenation, skipping the sort/slice machinery.
func TestSetStringAllocs(t *testing.T) {
	single := NewSet(Conf("ecric.org.uk/mdt/7"))
	if got := testing.AllocsPerRun(1000, func() { _ = single.String() }); got > 1 {
		t.Errorf("single-label Set.String allocs/op = %v, want <= 1", got)
	}
	if single.String() != "label:conf:ecric.org.uk/mdt/7" {
		t.Errorf("single-label String = %q", single.String())
	}
	if got := NewSet().String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	multi := NewSet(Conf("ecric.org.uk/patient/1"), Int("ecric.org.uk/app"), Conf("ecric.org.uk/mdt/7"))
	if got := testing.AllocsPerRun(1000, func() { _ = multi.String() }); got > 1 {
		t.Errorf("three-label Set.String allocs/op = %v, want <= 1", got)
	}
	want := "label:conf:ecric.org.uk/mdt/7,label:conf:ecric.org.uk/patient/1,label:int:ecric.org.uk/app"
	if got := multi.String(); got != want {
		t.Errorf("three-label String = %q, want %q", got, want)
	}
	// A zero label sorts by its placeholder URI like any other.
	if got := NewSet(Int("z"), Label{}, Conf("a")).String(); got != "label:conf:a,label:int:z,label:invalid:" {
		t.Errorf("String with zero label = %q", got)
	}
}

// TestDeriveSharesFirstSource pins Derive's fast path: deriving from
// sources that add no confidentiality label to the first and keep its
// integrity labels returns the first set without allocating, and a first
// set holding a label of no known kind still takes the rule-based path.
func TestDeriveSharesFirstSource(t *testing.T) {
	s := NewSet(Conf("a"), Conf("b"), Int("i"))
	if got := testing.AllocsPerRun(1000, func() { _ = Derive(s, s) }); got != 0 {
		t.Errorf("Derive(s, s) allocs/op = %v, want 0", got)
	}
	if got := Derive(s, NewSet(Conf("a"), Int("i"), Int("j"))); !got.Equal(s) {
		t.Errorf("Derive(s, subset) = %v, want %v", got, s)
	}
	if got := Derive(NewSet(Conf("a"), Label{})); !got.Equal(NewSet(Conf("a"))) {
		t.Errorf("Derive dropped no kindless label: %v", got)
	}
}

// TestOfKindSharesHomogeneousSets pins the allocation-free partition fast
// path used by the broker: a set whose labels are all one kind is returned
// as-is, and a kind with no members returns nil.
func TestOfKindSharesHomogeneousSets(t *testing.T) {
	conf := NewSet(Conf("a"), Conf("b"))
	if got := testing.AllocsPerRun(1000, func() { _ = conf.Confidentiality() }); got != 0 {
		t.Errorf("homogeneous Confidentiality allocs/op = %v, want 0", got)
	}
	if c := conf.Confidentiality(); c.Len() != 2 {
		t.Errorf("Confidentiality lost labels: %v", c)
	}
	if i := conf.Integrity(); i != nil {
		t.Errorf("Integrity of conf-only set = %v, want nil", i)
	}
	mixed := NewSet(Conf("a"), Int("i"))
	if c := mixed.Confidentiality(); c.Len() != 1 || !c.Contains(Conf("a")) {
		t.Errorf("mixed Confidentiality = %v", c)
	}
	if i := mixed.Integrity(); i.Len() != 1 || !i.Contains(Int("i")) {
		t.Errorf("mixed Integrity = %v", i)
	}
}

// TestWithoutFastPaths pins Without's allocation behaviour: removing
// nothing shares the receiver, and the one-label removal skips the
// intermediate drop set.
func TestWithoutFastPaths(t *testing.T) {
	s := NewSet(Conf("a"), Conf("b"))
	if got := s.Without(Conf("missing")); got.Len() != 2 {
		t.Errorf("Without(missing) = %v", got)
	}
	if got := testing.AllocsPerRun(1000, func() { _ = s.Without(Conf("missing")) }); got != 0 {
		t.Errorf("no-op Without allocs/op = %v, want 0", got)
	}
	if got := s.Without(Conf("a")); got.Len() != 1 || got.Contains(Conf("a")) {
		t.Errorf("Without(a) = %v", got)
	}
	one := NewSet(Conf("a"))
	if got := one.Without(Conf("a")); got != nil {
		t.Errorf("Without removing last label = %v, want nil", got)
	}
	// Duplicated removal labels must still drop the label exactly once.
	if got := s.Without(Conf("a"), Conf("a")); got.Len() != 1 {
		t.Errorf("Without(a, a) = %v", got)
	}
}
