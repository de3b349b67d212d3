// Package faults injects deterministic, seeded damage into MPEG-2
// elementary streams. It is the adversary half of the error-resilience
// story: the decoder's Resilience ladder (internal/core) consumes the
// corruption this package produces, and the benchmark's faulted-decode
// probes measure what it costs.
//
// Every fault kind is driven by math/rand's frozen Go-1 generator seeded
// from the caller's seed, so a (Spec, seed, input) triple always yields
// the same corrupted stream — the property the cross-mode golden tests
// and the fuzz corpora depend on.
//
// The first sequence header is never damaged: without it no decoder can
// even size its frame buffers, and transport protocols protect such
// configuration data far more heavily than payload in practice. All
// later bytes — GOP headers, picture headers, slices — are fair game.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"mpeg2par/internal/bits"
)

// Kind enumerates the corruption models.
type Kind int

const (
	// None leaves the stream untouched (the sweep's clean baseline).
	None Kind = iota
	// BitFlip flips Count single bits at random unprotected offsets.
	BitFlip
	// ByteBurst overwrites Count runs of Len random bytes.
	ByteBurst
	// Truncate cuts the stream, keeping roughly Rate of its bytes.
	Truncate
	// DropSlice excises Count whole slices (startcode through next
	// startcode), the loss unit the paper's random-access property makes
	// recoverable.
	DropSlice
	// DropPicture excises Count whole pictures (picture startcode
	// through the next picture/GOP/sequence startcode).
	DropPicture
	// PacketLoss models bursty transport loss with a two-state
	// Gilbert-Elliott chain over Len-byte packets: packets arriving in
	// the bad state are excised. Rate is the stationary loss rate and
	// Burst the mean bad-state run length in packets.
	PacketLoss
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case BitFlip:
		return "bitflip"
	case ByteBurst:
		return "burst"
	case Truncate:
		return "truncate"
	case DropSlice:
		return "dropslice"
	case DropPicture:
		return "droppic"
	case PacketLoss:
		return "gilbert"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Spec describes one corruption to apply.
type Spec struct {
	Kind  Kind
	Count int     // BitFlip: bits; ByteBurst: bursts; DropSlice/DropPicture: units
	Len   int     // ByteBurst: bytes per burst; PacketLoss: packet size in bytes
	Rate  float64 // Truncate: fraction of the stream kept; PacketLoss: loss rate
	Burst float64 // PacketLoss: mean bad-state run length in packets
}

// String renders the spec in the form Parse accepts.
func (s Spec) String() string {
	switch s.Kind {
	case None:
		return "none"
	case BitFlip:
		return fmt.Sprintf("bitflip:%d", s.Count)
	case ByteBurst:
		return fmt.Sprintf("burst:count=%d,len=%d", s.Count, s.Len)
	case Truncate:
		return fmt.Sprintf("truncate:%g", s.Rate)
	case DropSlice:
		return fmt.Sprintf("dropslice:%d", s.Count)
	case DropPicture:
		return fmt.Sprintf("droppic:%d", s.Count)
	case PacketLoss:
		return fmt.Sprintf("gilbert:loss=%g,burst=%g,pkt=%d", s.Rate, s.Burst, s.Len)
	}
	return s.Kind.String()
}

// Parse reads a fault spec of the form kind[:params]. Params are either a
// single positional value (the kind's primary knob) or key=value pairs:
//
//	bitflip:8            flip 8 random bits
//	burst:count=2,len=16 two 16-byte random bursts
//	truncate:0.9         keep the first ~90% of the stream
//	dropslice:3          excise 3 random slices
//	droppic:1            excise 1 random picture
//	gilbert:loss=0.02,burst=4,pkt=188   bursty 2% packet loss
func Parse(s string) (Spec, error) {
	name, rest, _ := strings.Cut(strings.TrimSpace(s), ":")
	var sp Spec
	switch name {
	case "none", "":
		return Spec{Kind: None}, nil
	case "bitflip":
		sp = Spec{Kind: BitFlip, Count: 1}
	case "burst":
		sp = Spec{Kind: ByteBurst, Count: 1, Len: 8}
	case "truncate":
		sp = Spec{Kind: Truncate, Rate: 0.9}
	case "dropslice":
		sp = Spec{Kind: DropSlice, Count: 1}
	case "droppic":
		sp = Spec{Kind: DropPicture, Count: 1}
	case "gilbert":
		sp = Spec{Kind: PacketLoss, Len: 188, Rate: 0.01, Burst: 4}
	default:
		return Spec{}, fmt.Errorf("faults: unknown kind %q", name)
	}
	if rest == "" {
		return sp, nil
	}
	for _, field := range strings.Split(rest, ",") {
		key, val, hasKey := strings.Cut(field, "=")
		if !hasKey {
			// Positional primary knob.
			switch sp.Kind {
			case Truncate:
				key, val = "rate", field
			default:
				key, val = "count", field
			}
		}
		switch key {
		case "count", "n":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Spec{}, fmt.Errorf("faults: bad count %q", val)
			}
			sp.Count = n
		case "len", "pkt":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Spec{}, fmt.Errorf("faults: bad length %q", val)
			}
			sp.Len = n
		case "rate", "loss":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f >= 1 {
				return Spec{}, fmt.Errorf("faults: bad rate %q", val)
			}
			sp.Rate = f
		case "burst":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 1 {
				return Spec{}, fmt.Errorf("faults: bad burst length %q", val)
			}
			sp.Burst = f
		default:
			return Spec{}, fmt.Errorf("faults: unknown parameter %q", key)
		}
	}
	return sp, nil
}

// Report describes the damage one Apply call inflicted.
type Report struct {
	Spec           string `json:"spec"`
	Seed           int64  `json:"seed"`
	Events         int    `json:"events"`          // individual faults applied
	BitsFlipped    int    `json:"bits_flipped"`    // BitFlip only
	BytesCorrupted int    `json:"bytes_corrupted"` // overwritten in place
	BytesDropped   int    `json:"bytes_dropped"`   // excised from the stream
	InLen          int    `json:"in_len"`
	OutLen         int    `json:"out_len"`
}

// Apply corrupts a copy of data according to the spec, deterministically
// in (spec, seed, data). The input is never modified.
func (s Spec) Apply(data []byte, seed int64) ([]byte, Report) {
	rep := Report{Spec: s.String(), Seed: seed, InLen: len(data)}
	out := append([]byte(nil), data...)
	rng := rand.New(rand.NewSource(seed))
	protect := protectedPrefix(out)

	switch s.Kind {
	case None:
	case BitFlip:
		if len(out) > protect {
			for i := 0; i < s.Count; i++ {
				off := protect + rng.Intn(len(out)-protect)
				out[off] ^= 1 << uint(rng.Intn(8))
				rep.Events++
				rep.BitsFlipped++
			}
		}
	case ByteBurst:
		n := s.Len
		if n < 1 {
			n = 8
		}
		if len(out) > protect {
			for i := 0; i < s.Count; i++ {
				off := protect + rng.Intn(len(out)-protect)
				end := off + n
				if end > len(out) {
					end = len(out)
				}
				for j := off; j < end; j++ {
					out[j] = byte(rng.Intn(256))
					rep.BytesCorrupted++
				}
				rep.Events++
			}
		}
	case Truncate:
		cut := int(s.Rate * float64(len(out)))
		if cut < protect {
			cut = protect
		}
		if cut < len(out) {
			rep.BytesDropped = len(out) - cut
			rep.Events = 1
			out = out[:cut]
		}
	case DropSlice:
		out = dropRanges(out, sliceRanges(out, protect), s.Count, rng, &rep)
	case DropPicture:
		out = dropRanges(out, pictureRanges(out, protect), s.Count, rng, &rep)
	case PacketLoss:
		out = gilbertLoss(out, protect, s, rng, &rep)
	}
	rep.OutLen = len(out)
	return out, rep
}

// protectedPrefix returns the end of the stream's first sequence header
// (through its immediately following startcode), which faults never
// touch. Streams without a recognizable header get a small fixed guard.
func protectedPrefix(data []byte) int {
	first := bits.FindStartCode(data, 0)
	if first < 0 {
		return min(len(data), 4)
	}
	next := bits.FindStartCode(data, first+4)
	if next < 0 {
		return min(len(data), first+12)
	}
	return next
}

// Range is a half-open byte span within the stream.
type Range struct{ Start, End int }

// sliceRanges indexes every slice (startcode 0x01..0xAF) after the
// protected prefix; each slice extends to the next startcode.
func sliceRanges(data []byte, protect int) []Range {
	var rs []Range
	for pos := protect; ; {
		i := bits.FindStartCode(data, pos)
		if i < 0 || i+3 >= len(data) {
			break
		}
		code := data[i+3]
		pos = i + 4
		if code < 0x01 || code > 0xAF {
			continue
		}
		end := bits.FindStartCode(data, pos)
		if end < 0 {
			end = len(data)
		}
		rs = append(rs, Range{Start: i, End: end})
	}
	return rs
}

// pictureRanges indexes every picture (startcode 0x00) after the
// protected prefix; each extends past its slices to the next
// picture/GOP/sequence startcode.
func pictureRanges(data []byte, protect int) []Range {
	var rs []Range
	for pos := protect; ; {
		i := bits.FindStartCode(data, pos)
		if i < 0 || i+3 >= len(data) {
			break
		}
		code := data[i+3]
		pos = i + 4
		if code != 0x00 {
			continue
		}
		end := len(data)
		for p := pos; ; {
			j := bits.FindStartCode(data, p)
			if j < 0 || j+3 >= len(data) {
				break
			}
			c := data[j+3]
			if c == 0x00 || c >= 0xB0 {
				end = j
				break
			}
			p = j + 4
		}
		rs = append(rs, Range{Start: i, End: end})
	}
	return rs
}

// dropRanges excises count randomly chosen ranges (without replacement).
func dropRanges(data []byte, rs []Range, count int, rng *rand.Rand, rep *Report) []byte {
	if len(rs) == 0 {
		return data
	}
	if count > len(rs) {
		count = len(rs)
	}
	picked := rng.Perm(len(rs))[:count]
	sort.Ints(picked)
	out := make([]byte, 0, len(data))
	prev := 0
	for _, pi := range picked {
		r := rs[pi]
		if r.Start < prev { // overlapping ranges after earlier excisions
			continue
		}
		out = append(out, data[prev:r.Start]...)
		rep.BytesDropped += r.End - r.Start
		rep.Events++
		prev = r.End
	}
	out = append(out, data[prev:]...)
	return out
}

// gilbertLoss walks Len-byte packets through a two-state Gilbert-Elliott
// chain and excises packets arriving in the bad state. With stationary
// loss rate r and mean bad-run length L, P(bad→good) = 1/L and
// P(good→bad) = r / (L·(1−r)).
func gilbertLoss(data []byte, protect int, s Spec, rng *rand.Rand, rep *Report) []byte {
	pkt := s.Len
	if pkt < 1 {
		pkt = 188
	}
	burst := s.Burst
	if burst < 1 {
		burst = 1
	}
	pBG := 1 / burst
	pGB := s.Rate / (burst * (1 - s.Rate))
	if pGB > 1 {
		pGB = 1
	}
	out := append([]byte(nil), data[:protect]...)
	bad := false
	for off := protect; off < len(data); off += pkt {
		end := off + pkt
		if end > len(data) {
			end = len(data)
		}
		if bad {
			if rng.Float64() < pBG {
				bad = false
			}
		} else if rng.Float64() < pGB {
			bad = true
		}
		if bad {
			rep.BytesDropped += end - off
			rep.Events++
			continue
		}
		out = append(out, data[off:end]...)
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
