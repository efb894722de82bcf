package cap

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestMintAndCheck(t *testing.T) {
	a := NewAuthority([]byte("k"))
	c := a.Mint(42, Read|Write)
	if !a.Check(c, Read) || !a.Check(c, Write) || !a.Check(c, Read|Write) {
		t.Error("valid capability rejected")
	}
	if a.Check(c, Grant) {
		t.Error("capability granted a right it does not carry")
	}
}

func TestForgeryRejected(t *testing.T) {
	a := NewAuthority([]byte("k"))
	c := a.Mint(42, Read)
	// Tampered resource.
	forged := c
	forged.Resource = 43
	if a.Check(forged, Read) {
		t.Error("resource-tampered capability accepted")
	}
	// Escalated rights.
	forged = c
	forged.Rights = Read | Write
	if a.Check(forged, Write) {
		t.Error("rights-escalated capability accepted")
	}
	// Zero-value capability.
	if a.Check(Capability{Resource: 42, Rights: Read}, Read) {
		t.Error("unsigned capability accepted")
	}
}

func TestAuthoritiesAreIndependent(t *testing.T) {
	a := NewAuthority([]byte("a"))
	b := NewAuthority([]byte("b"))
	c := a.Mint(1, Read)
	if b.Check(c, Read) {
		t.Error("capability crossed authority boundary")
	}
}

func TestDerive(t *testing.T) {
	a := NewAuthority(nil)
	parent := a.Mint(7, Read|Write|Grant)
	child, ok := a.Derive(parent, Read)
	if !ok {
		t.Fatal("derive failed")
	}
	if !a.Check(child, Read) {
		t.Error("derived capability invalid")
	}
	if a.Check(child, Write) {
		t.Error("derived capability carries un-derived right")
	}
	// Deriving beyond the parent's rights fails.
	if _, ok := a.Derive(a.Mint(7, Read|Grant), Write); ok {
		t.Error("derive escalated rights")
	}
	// Deriving from a non-Grant capability fails.
	if _, ok := a.Derive(a.Mint(7, Read|Write), Read); ok {
		t.Error("derive without Grant succeeded")
	}
	// Derived capabilities without Grant cannot be re-derived.
	if _, ok := a.Derive(child, Read); ok {
		t.Error("re-derive from non-Grant child succeeded")
	}
}

// Property: Check(Mint(r, rights), need) succeeds iff need ⊆ rights.
func TestQuickMintCheck(t *testing.T) {
	a := NewAuthority([]byte("q"))
	f := func(resource uint64, rights, need uint8) bool {
		r := Rights(rights) & (Read | Write | Grant)
		n := Rights(need) & (Read | Write | Grant)
		c := a.Mint(resource, r)
		return a.Check(c, n) == (r&n == n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a MAC from one (resource, rights) pair never validates another.
func TestQuickNoCrossValidation(t *testing.T) {
	a := NewAuthority([]byte("q"))
	f := func(r1, r2 uint64) bool {
		if r1 == r2 {
			return true
		}
		c := a.Mint(r1, Read)
		c.Resource = r2
		return !a.Check(c, Read)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refSign is the reference MAC: a fresh HMAC-SHA256 state per call, keyed
// exactly as NewAuthority keys its reused one.
func refSign(seed []byte, resource uint64, rights Rights) [16]byte {
	key := sha256.Sum256(append([]byte("exokernel-cap-v1"), seed...))
	mac := hmac.New(sha256.New, key[:])
	var buf [9]byte
	binary.LittleEndian.PutUint64(buf[:8], resource)
	buf[8] = byte(rights)
	mac.Write(buf[:])
	var out [16]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// capOp is one step of a random Authority workout.
type capOp struct {
	Kind     uint8 // mint, check, forged check, derive
	Resource uint64
	Rights   uint8
	Pick     uint16 // which earlier capability to present
	Flip     uint8  // forged checks: which MAC byte or field to tamper
}

// Property: one Authority, driven through any sequence of Mint, Check
// (valid, failing and forged) and Derive, produces the same MAC bytes and
// verdicts as a reference that builds a fresh MAC state per call — the
// reused state carries nothing from one call into the next.
func TestQuickReusedMACStateless(t *testing.T) {
	seed := []byte("stateless")
	a := NewAuthority(seed)
	refCheck := func(c Capability, need Rights) bool {
		want := refSign(seed, c.Resource, c.Rights)
		return c.Rights&need == need && hmac.Equal(want[:], c.mac[:])
	}
	f := func(ops []capOp) bool {
		pool := []Capability{{Resource: 1, Rights: Read}} // one unsigned token
		for _, op := range ops {
			rights := Rights(op.Rights) & (Read | Write | Grant)
			c := pool[int(op.Pick)%len(pool)]
			switch op.Kind % 4 {
			case 0:
				m := a.Mint(op.Resource, rights)
				if m.Resource != op.Resource || m.Rights != rights || m.mac != refSign(seed, op.Resource, rights) {
					return false
				}
				pool = append(pool, m)
			case 1:
				if a.Check(c, rights) != refCheck(c, rights) {
					return false
				}
			case 2:
				switch op.Flip % 3 {
				case 0:
					c.mac[int(op.Flip/3)%len(c.mac)] ^= 1 << (op.Flip % 8)
				case 1:
					c.Resource ^= op.Resource | 1
				case 2:
					c.Rights |= Write | Grant
				}
				if a.Check(c, rights) != refCheck(c, rights) {
					return false
				}
			case 3:
				d, ok := a.Derive(c, rights)
				wantOK := refCheck(c, Grant) && rights&c.Rights == rights
				if ok != wantOK {
					return false
				}
				if ok {
					if d.Resource != c.Resource || d.Rights != rights || d.mac != refSign(seed, c.Resource, rights) {
						return false
					}
					pool = append(pool, d)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Minting, checking and deriving reuse the Authority's MAC state and
// buffers: none of them allocates.
func TestAuthorityAllocs(t *testing.T) {
	a := NewAuthority([]byte("allocs"))
	c := a.Mint(7, Read|Write|Grant)
	if n := testing.AllocsPerRun(100, func() { _ = a.Mint(7, Read|Write) }); n != 0 {
		t.Errorf("Mint allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !a.Check(c, Write) {
			t.Fatal("valid capability rejected")
		}
	}); n != 0 {
		t.Errorf("Check allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := a.Derive(c, Read); !ok {
			t.Fatal("derive failed")
		}
	}); n != 0 {
		t.Errorf("Derive allocates %v times per call", n)
	}
}
