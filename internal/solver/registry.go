package solver

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The registry maps engine names to implementations plus their
// capability documents. Built-in engines register at package init;
// extensions may RegisterEngine more (a sharded backend, a cached
// front, a new policy) without touching consumers.
var (
	regMu    sync.RWMutex
	registry = make(map[string]Engine)
)

// RegisterEngine adds an engine under its name. Empty names, nil
// engines and duplicate names are rejected: a silent overwrite would
// let two packages fight over a name and make golden results
// unreproducible.
func RegisterEngine(e Engine) error {
	if e == nil {
		return fmt.Errorf("solver: RegisterEngine(nil)")
	}
	name := e.Name()
	if name == "" {
		return fmt.Errorf("solver: Register with empty name")
	}
	if caps := e.Capabilities(); caps.Name != name {
		return fmt.Errorf("solver: engine %q declares capabilities for %q", name, caps.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("solver: duplicate registration of %q", name)
	}
	registry[name] = e
	return nil
}

// MustRegisterEngine is RegisterEngine for init-time use; it panics on
// error.
func MustRegisterEngine(e Engine) {
	if err := RegisterEngine(e); err != nil {
		panic(err)
	}
}

// Lookup returns the engine registered under name. The error wraps
// ErrUnknownSolver and lists the registered set, so CLI typos are
// self-diagnosing and services can map it to 404 with errors.Is.
func Lookup(name string) (Engine, error) {
	regMu.RLock()
	e, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (known: %s)", ErrUnknownSolver, name, strings.Join(List(), ", "))
	}
	return e, nil
}

// MustLookup is Lookup for names the caller knows are built-in.
func MustLookup(name string) Engine {
	e, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return e
}

// Engines returns the registered engines in List() order.
func Engines() []Engine {
	names := List()
	out := make([]Engine, len(names))
	regMu.RLock()
	for i, name := range names {
		out[i] = registry[name]
	}
	regMu.RUnlock()
	return out
}

// Catalog returns every registered engine's capability document in
// List() order.
func Catalog() []Capabilities {
	engines := Engines()
	out := make([]Capabilities, len(engines))
	for i, e := range engines {
		out[i] = e.Capabilities()
	}
	return out
}

// List returns the registered engine names, sorted.
func List() []string {
	regMu.RLock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	regMu.RUnlock()
	sort.Strings(names)
	return names
}
