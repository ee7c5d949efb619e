package core

import (
	"encoding/binary"
	"math"

	"repro/internal/mapping"
)

// Packed is a Result in the compact form a memo keeps: the method and one
// byte slice holding every other field. Floats are stored as their bits
// and interval fields in the fewest bytes that hold the largest of them,
// so a packed answer costs a fraction of the Result it stands for (one
// allocation instead of one per slice, and 4 bytes per interval instead
// of 32 when every field is below 128). Unpack gives back a Result
// reflect.DeepEqual to the packed one, bit for bit and with the nil-ness
// of every slice preserved. The zero Packed unpacks to the zero Result.
type Packed struct {
	method Method
	data   []byte
}

// Flag bits of a packed Result's first byte.
const (
	packOptimal = 1 << iota
	packDegraded
	packApps         // Mapping.Apps is non-nil
	packAppPeriods   // Metrics.AppPeriods is non-nil
	packAppLatencies // Metrics.AppLatencies is non-nil
)

// Pack returns r in packed form. It shares nothing with r.
func (r Result) Pack() Packed {
	var flags byte
	set := func(on bool, bit byte) {
		if on {
			flags |= bit
		}
	}
	set(r.Optimal, packOptimal)
	set(r.Degraded, packDegraded)
	set(r.Mapping.Apps != nil, packApps)
	set(r.Metrics.AppPeriods != nil, packAppPeriods)
	set(r.Metrics.AppLatencies != nil, packAppLatencies)
	total, width := 0, 1
	for _, app := range r.Mapping.Apps {
		total += len(app.Intervals)
		for _, iv := range app.Intervals {
			for _, v := range [4]int{iv.From, iv.To, iv.Proc, iv.Mode} {
				for z := zigzag(v); width < 8 && z>>(8*width) != 0; {
					width *= 2
				}
			}
		}
	}
	var scratch [256]byte // holds most answers, so only the copy below allocates
	b := append(scratch[:0], flags)
	for _, x := range []float64{r.Value, r.Metrics.Period, r.Metrics.Latency, r.Metrics.Energy, r.LowerBound} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	b = binary.AppendUvarint(b, uint64(len(r.Metrics.AppPeriods)))
	b = binary.AppendUvarint(b, uint64(len(r.Metrics.AppLatencies)))
	for _, xs := range [2][]float64{r.Metrics.AppPeriods, r.Metrics.AppLatencies} {
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(r.Mapping.Apps)))
	b = binary.AppendUvarint(b, uint64(total))
	b = append(b, byte(width))
	for _, app := range r.Mapping.Apps {
		// 0 stands for nil intervals, n+1 for n of them.
		if app.Intervals == nil {
			b = append(b, 0)
			continue
		}
		b = binary.AppendUvarint(b, uint64(len(app.Intervals))+1)
	}
	for _, app := range r.Mapping.Apps {
		for _, iv := range app.Intervals {
			for _, v := range [4]int{iv.From, iv.To, iv.Proc, iv.Mode} {
				for z, k := zigzag(v), 0; k < width; k++ {
					b = append(b, byte(z>>(8*k)))
				}
			}
		}
	}
	return Packed{method: r.Method, data: append([]byte(nil), b...)}
}

// zigzag maps small negative ints to small unsigned ones, as a signed
// varint is stored: 0, -1, 1, -2, ... become 0, 1, 2, 3, ...
func zigzag(v int) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(z uint64) int { return int(z>>1) ^ -int(z&1) }

// Unpack returns the Result p stands for, as an independent value: one
// backing array for the intervals and one for the metric floats, resliced
// to full capacity so appends to one slice never reach its neighbour.
func (p Packed) Unpack() Result {
	if p.data == nil {
		return Result{Method: p.method}
	}
	d := packReader{b: p.data}
	flags := d.byte()
	r := Result{
		Method:   p.method,
		Optimal:  flags&packOptimal != 0,
		Degraded: flags&packDegraded != 0,
	}
	r.Value, r.Metrics.Period, r.Metrics.Latency, r.Metrics.Energy, r.LowerBound =
		d.float(), d.float(), d.float(), d.float(), d.float()
	np, nl := int(d.uvarint()), int(d.uvarint())
	if flags&(packAppPeriods|packAppLatencies) != 0 {
		floats := make([]float64, np+nl)
		for i := range floats {
			floats[i] = d.float()
		}
		if flags&packAppPeriods != 0 {
			r.Metrics.AppPeriods = floats[0:np:np]
		}
		if flags&packAppLatencies != 0 {
			r.Metrics.AppLatencies = floats[np : np+nl : np+nl]
		}
	}
	apps, total := int(d.uvarint()), int(d.uvarint())
	if flags&packApps == 0 {
		return r
	}
	width := int(d.byte())
	r.Mapping.Apps = make([]mapping.AppMapping, apps)
	backing := make([]mapping.PlacedInterval, total)
	off := 0
	for a := range r.Mapping.Apps {
		n := int(d.uvarint())
		if n == 0 {
			continue
		}
		r.Mapping.Apps[a].Intervals = backing[off : off+n-1 : off+n-1]
		off += n - 1
	}
	vals := d.b[:4*width*total]
	if width == 1 { // every field in [-128, 127], the common case
		for i := range backing {
			v := vals[4*i : 4*i+4]
			backing[i] = mapping.PlacedInterval{
				From: unzigzag(uint64(v[0])), To: unzigzag(uint64(v[1])),
				Proc: unzigzag(uint64(v[2])), Mode: unzigzag(uint64(v[3])),
			}
		}
		return r
	}
	field := func(j int) int {
		var z uint64
		for k := range width {
			z |= uint64(vals[j*width+k]) << (8 * k)
		}
		return unzigzag(z)
	}
	for i := range backing {
		backing[i] = mapping.PlacedInterval{From: field(4 * i), To: field(4*i + 1), Proc: field(4*i + 2), Mode: field(4*i + 3)}
	}
	return r
}

// packReader reads the fields of a packed Result in order. The bytes come
// from Pack only, so a short or malformed read is a bug and panics.
type packReader struct{ b []byte }

func (d *packReader) byte() byte {
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *packReader) float() float64 {
	x := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return x
}

func (d *packReader) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		panic("core: malformed packed result")
	}
	d.b = d.b[n:]
	return x
}
