package event

import (
	"fmt"
	"reflect"
)

// Registry is a Codec assembled from registered callback kinds. Each
// simulator component registers its pre-bound callbacks under stable
// kind names; the registry keys live callbacks by their code pointer —
// method values of the same method share one code pointer across
// receivers, so one registration covers every instance, with the
// receiver recovered from the event's env through the kind's decoder.
type Registry struct {
	byPtr  map[uintptr]*regEntry
	byKind map[string]*regEntry
}

type regEntry struct {
	kind string
	// enc maps a pending event's env to an owner index; nil means the
	// kind carries no env (env must be nil at encode).
	enc func(env any) (int32, error)
	dec func(owner int32) (Bound, any, error)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byPtr: map[uintptr]*regEntry{}, byKind: map[string]*regEntry{}}
}

// RegisterBound registers a bound-callback kind. sample supplies the
// callback's code pointer; enc maps a pending event's env to an owner
// index (nil enc means the kind schedules with a nil env); dec returns
// the live binding — callback and env — for a decoded owner.
func (r *Registry) RegisterBound(kind string, sample Bound, enc func(env any) (int32, error), dec func(owner int32) (Bound, any, error)) {
	if sample == nil || dec == nil {
		panic("event: RegisterBound needs a sample callback and a decoder")
	}
	ptr := reflect.ValueOf(sample).Pointer()
	if _, dup := r.byKind[kind]; dup {
		panic(fmt.Sprintf("event: kind %q registered twice", kind))
	}
	if _, dup := r.byPtr[ptr]; dup {
		panic(fmt.Sprintf("event: callback for kind %q already registered under another kind", kind))
	}
	e := &regEntry{kind: kind, enc: enc, dec: dec}
	r.byKind[kind] = e
	r.byPtr[ptr] = e
}

// Encode implements Codec.
func (r *Registry) Encode(fn Bound, env any) (string, int32, error) {
	if fn == nil {
		return "", 0, fmt.Errorf("event: encode of event with no callback")
	}
	ptr := reflect.ValueOf(fn).Pointer()
	e, ok := r.byPtr[ptr]
	if !ok {
		return "", 0, fmt.Errorf("event: callback %v not registered for checkpointing", ptr)
	}
	if e.enc == nil {
		if env != nil {
			return "", 0, fmt.Errorf("event: kind %q carries unexpected env %T", e.kind, env)
		}
		return e.kind, 0, nil
	}
	owner, err := e.enc(env)
	if err != nil {
		return "", 0, fmt.Errorf("event: kind %q: %w", e.kind, err)
	}
	return e.kind, owner, nil
}

// Decode implements Codec.
func (r *Registry) Decode(kind string, owner int32) (Bound, any, error) {
	e, ok := r.byKind[kind]
	if !ok {
		return nil, nil, fmt.Errorf("event: unknown event kind %q", kind)
	}
	fn, env, err := e.dec(owner)
	if err != nil {
		return nil, nil, fmt.Errorf("event: kind %q: %w", kind, err)
	}
	return fn, env, nil
}
