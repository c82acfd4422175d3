package lmmrank

import (
	"encoding/binary"
	"math"
	"testing"
)

// decodeQuery carves one Query out of raw fuzz bytes: scalars first,
// then up to 8 site-personalization entries, then up to 2 small
// document-personalization vectors. Deterministic, so equal byte
// prefixes decode to equal queries. Vectors with finite positive mass
// are scaled to sum to 1, the only shape Query.validate admits, so the
// coalescing contract keeps being exercised on personalized queries.
func decodeQuery(data []byte) (Query, []byte) {
	f64 := func() float64 {
		if len(data) < 8 {
			return 0
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return v
	}
	u8 := func() byte {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return v
	}
	var q Query
	q.Damping = f64()
	q.Tol = f64()
	q.MaxIter = int(int8(u8()))
	q.TopK = int(int8(u8()))
	flags := u8()
	q.ThreeLayer = flags&1 != 0
	q.WantLocalRanks = flags&2 != 0
	if n := int(u8() % 9); n > 0 {
		q.SitePersonalization = make(Vector, n)
		for i := range q.SitePersonalization {
			q.SitePersonalization[i] = f64()
		}
		toDistribution(q.SitePersonalization)
	}
	for d := int(u8() % 3); d > 0; d-- {
		n := int(u8()%4) + 1
		v := make(Vector, n)
		for i := range v {
			v[i] = f64()
		}
		toDistribution(v)
		if q.DocPersonalization == nil {
			q.DocPersonalization = make(map[SiteID]Vector)
		}
		q.DocPersonalization[SiteID(u8()%5)] = v
	}
	return q, data
}

// toDistribution scales v in place to unit mass when its mass is finite
// and positive; anything else stays as decoded for validate to reject.
func toDistribution(v Vector) {
	var mass float64
	for _, x := range v {
		mass += x
	}
	if mass > 0 && !math.IsInf(mass, 0) {
		for i := range v {
			v[i] /= mass
		}
	}
}

// normalizedL1Diff returns ‖û − v̂‖₁ of the L1-normalized vectors, and
// whether both vectors are cleanly normalizable (finite nonnegative
// entries, positive mass) — the shapes Query.validate admits.
func normalizedL1Diff(u, v Vector) (float64, bool) {
	if len(u) != len(v) {
		return 0, false
	}
	var mu, mv float64
	for i := range u {
		if u[i] < 0 || v[i] < 0 || math.IsNaN(u[i]) || math.IsNaN(v[i]) ||
			math.IsInf(u[i], 0) || math.IsInf(v[i], 0) {
			return 0, false
		}
		mu += u[i]
		mv += v[i]
	}
	if mu <= 0 || mv <= 0 || math.IsInf(mu, 0) || math.IsInf(mv, 0) {
		return 0, false
	}
	var d float64
	for i := range u {
		d += math.Abs(u[i]/mu - v[i]/mv)
	}
	return d, true
}

// queryAnswerEqual reports whether two coalesceable queries necessarily
// produce the same answer — every fingerprinted field bitwise equal.
func queryAnswerEqual(a, b Query) bool {
	eqf := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eqf(a.Damping, b.Damping) || !eqf(a.Tol, b.Tol) ||
		a.MaxIter != b.MaxIter || a.TopK != b.TopK ||
		a.ThreeLayer != b.ThreeLayer || a.WantLocalRanks != b.WantLocalRanks {
		return false
	}
	eqv := func(u, v Vector) bool {
		if len(u) != len(v) {
			return false
		}
		for i := range u {
			if !eqf(u[i], v[i]) {
				return false
			}
		}
		return true
	}
	if !eqv(a.SitePersonalization, b.SitePersonalization) ||
		(a.SitePersonalization == nil) != (b.SitePersonalization == nil) {
		return false
	}
	if len(a.DocPersonalization) != len(b.DocPersonalization) ||
		(a.DocPersonalization == nil) != (b.DocPersonalization == nil) {
		return false
	}
	for s, u := range a.DocPersonalization {
		v, ok := b.DocPersonalization[s]
		if !ok || !eqv(u, v) {
			return false
		}
	}
	return true
}

// FuzzQueryFingerprint is the coalescing-safety fuzz target: whatever
// two queries the fuzzer constructs, a shared fingerprint must never
// coalesce queries whose answers could differ beyond the contract —
// bit-identical answer fields at tol=0, personalization within tol in
// normalized L1 at tol>0 (the 1-Lipschitz bound's precondition). The
// key must also be deterministic, or coalescing would silently never
// fire.
func FuzzQueryFingerprint(f *testing.F) {
	f.Add([]byte{}, 0.0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 0.01)
	f.Add(func() []byte {
		var b []byte
		var buf [8]byte
		for _, x := range []float64{0.85, 1e-9, 0.5, 0.25, 0.25} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			b = append(b, buf[:]...)
		}
		return b
	}(), 1e-3)

	f.Fuzz(func(t *testing.T, data []byte, tol float64) {
		if math.IsNaN(tol) || math.IsInf(tol, 0) {
			tol = 0
		}
		qa, rest := decodeQuery(data)
		qb, _ := decodeQuery(rest)

		ka, oka := qa.fingerprint(tol)
		kb, okb := qb.fingerprint(tol)
		if ka2, oka2 := qa.fingerprint(tol); ka2 != ka || oka2 != oka {
			t.Fatal("fingerprint is not deterministic")
		}
		if !oka || !okb || ka != kb {
			return
		}
		// Coalescing only happens after Query.validate at the serving
		// boundary; shapes validate rejects can never share a flight, so
		// a key collision between them is not a wrong coalesce.
		if qa.validate() != nil || qb.validate() != nil {
			return
		}

		// The queries would coalesce. At tol<=0 that demands bitwise
		// equality of every answer field; at tol>0 the scalar fields must
		// still match bitwise and each personalization vector must be
		// within tol after normalization (degenerate vectors hash by
		// exact bits, so they too must be equal).
		if tol <= 0 {
			if !queryAnswerEqual(qa, qb) {
				t.Fatalf("tol=%g coalesced distinct queries:\n%#v\n%#v", tol, qa, qb)
			}
			return
		}
		scalA, scalB := qa, qb
		scalA.SitePersonalization, scalB.SitePersonalization = nil, nil
		scalA.DocPersonalization, scalB.DocPersonalization = nil, nil
		if !queryAnswerEqual(scalA, scalB) {
			t.Fatalf("tol=%g coalesced queries with distinct scalar fields:\n%#v\n%#v", tol, qa, qb)
		}
		bitEq := func(u, v Vector) bool {
			if len(u) != len(v) {
				return false
			}
			for i := range u {
				if math.Float64bits(u[i]) != math.Float64bits(v[i]) {
					return false
				}
			}
			return true
		}
		checkVec := func(u, v Vector, what string) {
			if d, ok := normalizedL1Diff(u, v); ok {
				if d >= tol {
					t.Fatalf("tol=%g coalesced %s vectors %g apart in normalized L1:\n%v\n%v", tol, what, d, u, v)
				}
			} else if !bitEq(u, v) {
				t.Fatalf("tol=%g coalesced distinct degenerate %s vectors:\n%v\n%v", tol, what, u, v)
			}
		}
		checkVec(qa.SitePersonalization, qb.SitePersonalization, "site")
		if len(qa.DocPersonalization) != len(qb.DocPersonalization) {
			t.Fatalf("tol=%g coalesced queries with different doc-personalization shapes", tol)
		}
		for s, u := range qa.DocPersonalization {
			v, ok := qb.DocPersonalization[s]
			if !ok {
				t.Fatalf("tol=%g coalesced doc personalization over different sites", tol)
			}
			checkVec(u, v, "doc")
		}
	})
}
