// Package p exercises the hotpath-alloc analyzer.
package p

// Stats is a plain value struct; value literals of it are stack cheap.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// K is a kernel-shaped type with a reusable buffer.
type K struct {
	buf   []uint64
	stats Stats
}

func sink(v any) {}

func take(p *K) {}

// Hot carries the annotation and trips every flagged construct.
//
//dynexcheck:hot
func (k *K) Hot(refs []uint64) uint64 {
	tmp := make([]uint64, 4)
	lit := []uint64{1, 2}
	mp := map[uint64]uint64{}
	ps := &Stats{}
	out := append(lit, refs...)
	sink(k.stats)
	bs := []byte("x")
	st := string(bs)
	f := func() { k.stats.Hits++ }
	f()
	d := Stats{Hits: 1} // value struct literal: clean
	k.stats = d
	k.buf = append(k.buf, tmp...) // reuse append: clean
	take(k)                       // pointer to interface-free param: clean
	sink(k)                       // pointer into interface: clean (no box)
	return out[0] + mp[0] + ps.Hits + uint64(len(st))
}

// AllowedHot suppresses an audited one-time allocation.
//
//dynexcheck:hot
func (k *K) AllowedHot() {
	if k.buf == nil {
		//dynexcheck:allow hotpath-alloc fixture-audited one-time lazy buffer
		k.buf = make([]uint64, 8)
	}
}

// CleanHot is annotated and genuinely allocation-free.
//
//dynexcheck:hot
func (k *K) CleanHot(refs []uint64) uint64 {
	var hits uint64
	for i := range refs {
		if refs[i]&1 == 0 {
			hits++
		}
	}
	d := Stats{Hits: hits}
	k.stats.Hits += d.Hits
	return hits
}

// Cold uses every allocating construct without the annotation: clean.
func (k *K) Cold() []uint64 {
	m := make([]uint64, 4)
	_ = map[int]int{}
	_ = &Stats{}
	sink(k.stats)
	return append([]uint64{9}, m...)
}

// DivHot divides by variables, which is flagged, and by constants, in
// floating point, and by shift and mask, which are clean.
//
//dynexcheck:hot
func (k *K) DivHot(refs []uint64, line uint64, scale float64) uint64 {
	n := uint64(len(k.buf))
	var sum uint64
	for _, a := range refs {
		sum += a / line
		sum += a % n
		sum += a / 16                     // constant divisor: clean
		sum += a >> 4 & 7                 // shift and mask: clean
		sum += uint64(float64(a) / scale) // floating point: clean
	}
	sum /= n
	sum %= line
	//dynexcheck:allow hotpath-alloc fixture-audited once-per-batch average
	sum /= uint64(len(refs))
	return sum
}

// ColdDiv divides without the annotation: clean.
func (k *K) ColdDiv(a, b uint64) uint64 { return a/b + a%b }
