// Package lint is safeweb's static-analysis suite: a set of
// golang.org/x/tools/go/analysis analyzers that turn the hot-path and
// lifecycle invariants documented in ROADMAP.md into CI-failing
// diagnostics. The cmd/safeweb-vet multichecker runs them over the whole
// tree; convention-only rules become mechanical checks that hold as more
// hands touch the fast paths.
//
// # Analyzers
//
// frozenmutate enforces the freeze-at-publish contract: an event handed
// to a broker Publish (Broker.Publish, Client.Publish, Endpoint.Publish)
// or explicitly frozen with Event.Freeze is immutable. The analyzer flags
// Event.Set calls, field writes (Topic, Body) and attribute-map writes on
// an event after a freeze point in the same function, and any mutation of
// the event parameter inside a SubscribeWire or SubscribeTap handler
// literal — wire and tap handlers receive the shared frozen original, so
// a mutation there corrupts every other subscriber's view.
//
// noretain enforces goroutine confinement and pooling lifecycles: a
// stomp.FrameView or stomp.HeaderView is invalidated by the next decode,
// an engine.Context is reset between callbacks, and event.DecodeCache is
// a goroutine-confined memo table. The analyzer flags
// values of those types escaping their confinement — stored to a struct
// field or package-level variable, sent on a channel, or handed to a
// goroutine (as a `go` argument or captured by a `go` closure) — outside
// the package that defines the type (the owner manages its own storage).
// It also tracks pooled delivery events: the *event.Event parameter of a
// subscription callback literal (Broker/Client/Endpoint.Subscribe,
// InitContext.Subscribe) is recycled by Event.Release when the callback
// returns, so the same escapes are flagged for it (Clone what outlives
// the callback).
//
// policygen is the compile-time form of the label package's
// TestPolicyMutatorsBumpGeneration/TestPolicyMethodsClassified pair, and
// shares the same classification list (the policyMutators/policyReaders
// maps, which live in a non-test file so both the test and the analyzer
// see them): every exported method on label.Policy must be classified as
// exactly one of mutator or reader; every classified mutator must bump
// the generation counter (a gen.Add call in its body or transitively in
// an unexported same-package callee); no reader may touch it; and stale
// classification entries naming methods that no longer exist are
// reported.
//
// hotpathlock enforces the lock-free, allocation-free discipline of the
// fan-out and encode fast paths. A function annotated with a
// //safeweb:hotpath directive — and every unexported same-package
// function it transitively calls — must not take a sync mutex
// (Lock/RLock), allocate a map or slice literal (composite literals and
// make), call package fmt, or box a non-pointer value into an interface.
// Calls the analyzer cannot resolve statically (interface methods,
// function-typed fields) are not followed; keep hot-path helpers
// concrete.
//
// # Directives
//
// //safeweb:hotpath in a function's doc comment opts it into hotpathlock
// checking, transitively through its unexported same-package helpers.
//
// //lint:ignore <analyzer>[,<analyzer>...] <reason> suppresses the named
// analyzers' diagnostics on the directly following line (or on its own
// line, for an end-of-line comment). The reason is mandatory — an ignore
// without one is itself reported — so every suppression carries its
// justification in the source. For hotpathlock, an ignored call site also
// stops the transitive walk into that callee: suppressing the call into a
// declared slow path keeps the rest of the hot function checked.
//
// # Running
//
// CI builds cmd/safeweb-vet and runs it over the tree as a required
// fast-fail step. Locally:
//
//	go build -o "$(go env GOPATH)/bin/safeweb-vet" ./cmd/safeweb-vet
//	go vet -vettool="$(which safeweb-vet)" ./...
//
// or standalone, which re-execs go vet with itself as the vettool:
//
//	safeweb-vet ./...
package lint
