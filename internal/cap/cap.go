// Package cap implements self-authenticating capabilities, after Chaum and
// Fabry [12], which the prototype exokernel uses for secure bindings to
// physical memory: "when a library operating system allocates a physical
// memory page, the exokernel creates a secure binding for that page by
// recording the owner and the read and write capabilities specified by the
// library operating system."
//
// A capability is an unforgeable token over (resource, rights): the kernel
// mints it with a keyed MAC and later validates presented tokens without a
// lookup table. Applications may pass capabilities to each other to grant
// access — the kernel does not track or care who holds one. The resource
// is whatever name the kernel mints over; Aegis names one secure binding
// (a per-kernel serial plus the frame or extent), so a capability dies
// with the binding it was minted for even when the resource is reused.
//
// Every Check recomputes the full HMAC-SHA256 over (resource, rights) and
// compares it in constant time; nothing is cached. An Authority keeps one
// keyed MAC state and reuses it for every call, so minting and checking
// allocate nothing. That makes an Authority single-owner: it belongs to
// one kernel and is not safe for concurrent use.
package cap

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// Rights is a bitmask of access rights carried by a capability.
type Rights uint8

// Access rights.
const (
	Read Rights = 1 << iota
	Write
	Grant // may mint derived capabilities with fewer rights
)

// Capability is a self-authenticating token: resource identity, rights, and
// a MAC binding them to the minting authority's key.
type Capability struct {
	Resource uint64
	Rights   Rights
	mac      [16]byte
}

// Authority mints and validates capabilities. The kernel owns one; its key
// never leaves it. The MAC state and its input and output buffers are
// reused across calls, so an Authority must not be used from more than one
// goroutine at a time.
type Authority struct {
	mac hash.Hash // HMAC-SHA256 keyed once at construction
	in  [9]byte   // resource (little-endian) ‖ rights
	sum [sha256.Size]byte
}

// NewAuthority creates an authority from seed material. A zero seed is
// valid (deterministic tests); real kernels pass entropy.
func NewAuthority(seed []byte) *Authority {
	key := sha256.Sum256(append([]byte("exokernel-cap-v1"), seed...))
	return &Authority{mac: hmac.New(sha256.New, key[:])}
}

// sign returns the truncated HMAC-SHA256 of (resource, rights). The input
// and output live in the Authority: a stack buffer would escape through
// the hash.Hash interface and cost an allocation per call.
func (a *Authority) sign(resource uint64, rights Rights) [16]byte {
	a.mac.Reset()
	binary.LittleEndian.PutUint64(a.in[:8], resource)
	a.in[8] = byte(rights)
	a.mac.Write(a.in[:])
	var out [16]byte
	copy(out[:], a.mac.Sum(a.sum[:0]))
	return out
}

// Mint creates a capability for a resource with the given rights.
func (a *Authority) Mint(resource uint64, rights Rights) Capability {
	return Capability{Resource: resource, Rights: rights, mac: a.sign(resource, rights)}
}

// Check validates a presented capability: it must be authentic and carry
// every right in need.
func (a *Authority) Check(c Capability, need Rights) bool {
	if c.Rights&need != need {
		return false
	}
	want := a.sign(c.Resource, c.Rights)
	return hmac.Equal(want[:], c.mac[:])
}

// Derive mints a capability with a subset of c's rights. It fails unless c
// is authentic and carries Grant.
func (a *Authority) Derive(c Capability, rights Rights) (Capability, bool) {
	if !a.Check(c, Grant) {
		return Capability{}, false
	}
	if rights&c.Rights != rights {
		return Capability{}, false
	}
	return a.Mint(c.Resource, rights), true
}
