// Package a is the fingerprintcheck fixture: one JSON-marshaled config
// struct, one hand-serialized spec struct and one by-name axes struct
// resolved by a Spec method, each with conforming and violating fields.
package a

import (
	"encoding/json"
	"strings"
)

// JSONConfig fingerprints as json.Marshal of the whole value.
type JSONConfig struct {
	// Width reaches the fingerprint through the default encoding.
	Width int
	// Label is omitempty but still serialized when non-zero — fine.
	Label string `json:",omitempty"`
	// Scratch escapes the fingerprint with no explanation.
	Scratch []byte `json:"-"` // want `JSONConfig\.Scratch is tagged json:"-" and never reaches the canonical fingerprint`
	// Workers never changes results: the pool size only affects wall
	// time, not simulated output.
	// fingerprint:ignore result-invariant: worker count cannot change deterministic results
	Workers int `json:"-"`
	// Height reaches the fingerprint, so its marker is stale.
	// fingerprint:ignore result-invariant: stale marker that should be dropped
	Height int // want `JSONConfig\.Height carries a .* marker but reaches the serialization anyway`
	// Depth has a marker without a reason.
	// fingerprint:ignore result-invariant:
	Depth int `json:"-"` // want `malformed fingerprint marker on JSONConfig\.Depth`
}

// Fingerprint is only here so the fixture resembles the real call shape.
func (c JSONConfig) Fingerprint() ([]byte, error) { return json.Marshal(c) }

// Spec is hand-copied into a shadow struct by Serialize below.
type Spec struct {
	// Seed is copied by Serialize.
	Seed int64
	// Name is copied by the helper the test also lists as a serializer.
	Name string
	// Retries never reaches the shadow struct and has no marker.
	Retries int // want `Spec\.Retries never reaches the canonical fingerprint`
	// Verbose only changes logging, never simulated results.
	// fingerprint:ignore result-invariant: log verbosity cannot change simulation output
	Verbose bool
}

type shadow struct {
	Seed int64  `json:"seed"`
	Name string `json:"name"`
}

// Serialize is the fixture's canonical serializer.
func Serialize(s Spec) ([]byte, error) {
	return json.Marshal(shadow{Seed: s.Seed, Name: nameOf(s)})
}

// nameOf is a second serializer hop, matching how the real
// Params.Fingerprint leans on table1Params.
func nameOf(s Spec) string { return s.Name }

// Axes is a by-name grid that its Spec method resolves, the shape of
// nocbt.SweepAxes: an axis Spec never reads cannot reach the fingerprint.
type Axes struct {
	// Formats is read by Spec.
	Formats []string
	// Topologies is never read by Spec and has no marker.
	Topologies []string // want `Axes\.Topologies never reaches the canonical fingerprint`
}

// Spec resolves the axes and forgets Topologies.
func (a Axes) Spec() (Spec, error) {
	return Spec{Name: strings.Join(a.Formats, ",")}, nil
}
