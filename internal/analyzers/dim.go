package analyzers

// This file is the algebra half of ctmsvet's fourth tier, the
// dimensional-inference engine (the solver lives in dimflow.go; see
// DESIGN.md §7.4). The paper's core question is quantitative — can a
// 100 Mbit/s ring carry 1.2 Mbit/s streams to hundreds of users — so
// the worst silent bug class in this reproduction is a units error:
// bits flowing into a bytes slot, a per-frame size used as a
// per-second rate, a duration multiplied into a rate. This tier
// assigns every value a *dimension* — an element of the free abelian
// group over the base units
//
//	{bit, byte, s, frame, sample}
//
// so bit/s, byte/s, Hz (= 1/s), frame/s, byte/frame and friends all
// compose under multiplication and division — and propagates those
// dimensions interprocedurally until two provably different dimensions
// meet at one expression.
//
// Dimensions are seeded three ways, in precedence order:
//
//  1. an explicit //ctmsvet:unit <dimension> directive on a struct
//     field, const/var spec, type declaration, or (naming the
//     parameter) a function's doc comment;
//  2. the identifier's own name (...Bits, ...BytesPerSec, sampleHz,
//     WallSeconds — the repo's unit-naming convention);
//  3. the declared type: time.Duration, and any named type whose
//     declaration carries a //ctmsvet:unit directive (sim.Time), seed
//     seconds.
//
// The algebra is scale-blind by design: ns, ms and s are all the
// second dimension, KB and B are both bytes. Consequently a
// constant-valued operand in a multiplication or division is a scale
// factor, not a quantity — with exactly one exception, the repo's
// blessed conversion: multiplying a byte-dimensioned value by the
// literal constant 8 yields bits, dividing a bit-dimensioned value by
// 8 yields bytes.
//
// The convention also binds names that seed nothing: a numeric field,
// parameter or variable called rate, budget or bw must say its unit
// (rateBitsPerSec, budgetBytes) or carry a directive, since an
// unlabeled rate is exactly where a forgotten ×8 hides.
import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// The base-unit axes of the dimension group, in rendering order.
const (
	dimBit = iota
	dimByte
	dimSec
	dimFrame
	dimSample
	numDims
)

var dimAxisName = [numDims]string{"bit", "byte", "s", "frame", "sample"}

// Dim is one dimension: an integer exponent per base unit. The zero
// Dim is dimensionless.
type Dim struct {
	exp [numDims]int8
}

// IsZero reports the dimensionless dimension.
func (d Dim) IsZero() bool { return d == Dim{} }

// Mul composes two dimensions multiplicatively.
func (d Dim) Mul(o Dim) Dim {
	for i := range d.exp {
		d.exp[i] += o.exp[i]
	}
	return d
}

// Div composes d/o.
func (d Dim) Div(o Dim) Dim {
	for i := range d.exp {
		d.exp[i] -= o.exp[i]
	}
	return d
}

// Inv is the multiplicative inverse (1/d).
func (d Dim) Inv() Dim {
	for i := range d.exp {
		d.exp[i] = -d.exp[i]
	}
	return d
}

// String renders the dimension in the same grammar ParseDim accepts:
// numerator factors joined by *, then / and the denominator factors,
// exponents as ^k. Dimensionless renders as "1", pure denominators as
// "1/s". The round-trip property (ParseDim(d.String()) == d) is pinned
// by TestDimStringRoundTrip and leaned on by the conflict messages.
func (d Dim) String() string {
	var num, den []string
	for i, e := range d.exp {
		switch {
		case e > 0:
			num = append(num, axisPow(i, int(e)))
		case e < 0:
			den = append(den, axisPow(i, int(-e)))
		}
	}
	s := "1"
	if len(num) > 0 {
		s = strings.Join(num, "*")
	}
	if len(den) > 0 {
		s += "/" + strings.Join(den, "/")
	}
	return s
}

func axisPow(axis, e int) string {
	if e == 1 {
		return dimAxisName[axis]
	}
	return dimAxisName[axis] + "^" + strconv.Itoa(e)
}

// dimBases maps the spelling of each base unit (and its aliases) in a
// //ctmsvet:unit expression onto its axis. hz is handled separately:
// it is s^-1, not a base.
var dimBases = map[string]int{
	"bit": dimBit, "bits": dimBit,
	"byte": dimByte, "bytes": dimByte,
	"s": dimSec, "sec": dimSec, "second": dimSec, "seconds": dimSec,
	"frame": dimFrame, "frames": dimFrame,
	"sample": dimSample, "samples": dimSample,
}

// ParseDim parses a dimension expression: factors separated by * and /,
// each a base unit (or hz, or the literal 1) with an optional ^k
// exponent. A / flips the sign of the factor that follows it, so
// byte/frame, bit/s, 1/s, bit*s and byte/frame/s all parse. Total over
// any input (FuzzUnitDirective holds it to that): malformed expressions
// return an error, never a panic.
func ParseDim(s string) (Dim, error) {
	var d Dim
	if s == "" {
		return d, fmt.Errorf("empty dimension")
	}
	sign := int8(1)
	rest := s
	for rest != "" {
		i := strings.IndexAny(rest, "*/")
		var factor, op string
		if i < 0 {
			factor, rest = rest, ""
		} else {
			factor, op, rest = rest[:i], rest[i:i+1], rest[i+1:]
			if rest == "" {
				return Dim{}, fmt.Errorf("dimension %q ends in %q", s, op)
			}
		}
		if err := applyFactor(&d, factor, sign); err != nil {
			return Dim{}, fmt.Errorf("dimension %q: %w", s, err)
		}
		if op == "/" {
			sign = -1
		} else {
			sign = 1
		}
	}
	return d, nil
}

// applyFactor folds one base^exp factor (with its sign from the
// preceding / if any) into d.
func applyFactor(d *Dim, factor string, sign int8) error {
	base, expStr, hasExp := strings.Cut(factor, "^")
	exp := 1
	if hasExp {
		n, err := strconv.Atoi(expStr)
		if err != nil || n < 1 || n > 9 {
			return fmt.Errorf("bad exponent %q (want an integer 1..9)", expStr)
		}
		exp = n
	}
	switch {
	case base == "1":
		if hasExp {
			return fmt.Errorf("1 takes no exponent")
		}
	case base == "hz" || base == "Hz":
		d.exp[dimSec] -= sign * int8(exp)
	default:
		axis, ok := dimBases[base]
		if !ok {
			return fmt.Errorf("unknown base unit %q (valid: bit, byte, s, frame, sample, hz, 1)", base)
		}
		d.exp[axis] += sign * int8(exp)
	}
	return nil
}

// unitDirectivePrefix introduces a dimension annotation:
//
//	//ctmsvet:unit <dimension> [param]
//
// On a struct field, const/var spec or type declaration the directive
// stands alone; on a function's doc comment the second token names the
// parameter it annotates ("result" names the single result).
const unitDirectivePrefix = "//ctmsvet:unit"

// parseUnitDirective splits one comment's text into the dimension
// expression and the optional target token. ok reports whether the
// comment is a unit directive at all; malformed-but-recognized
// directives (empty expression, trailing junk beyond the two tokens)
// come back ok with problems the caller turns into findings. This is
// the FuzzUnitDirective target: total over arbitrary comment text.
func parseUnitDirective(text string) (dimExpr, target string, extra bool, ok bool) {
	rest, ok := strings.CutPrefix(text, unitDirectivePrefix)
	if !ok {
		return "", "", false, false
	}
	fields := strings.Fields(rest)
	switch len(fields) {
	case 0:
		return "", "", false, true
	case 1:
		return fields[0], "", false, true
	case 2:
		return fields[0], fields[1], false, true
	default:
		return fields[0], fields[1], true, true
	}
}

// ---- name seeding ----------------------------------------------------

// Word classes for dimFromName. The time words are deliberately broad —
// the algebra is scale-blind, so Us, Ms and Seconds all mean the second
// axis — but "min" is excluded (it usually means minimum).
var (
	dimBitWords  = map[string]bool{"bit": true, "bits": true}
	dimByteWords = map[string]bool{"byte": true, "bytes": true}
	dimTimeWords = map[string]bool{
		"sec": true, "secs": true, "second": true, "seconds": true,
		"ms": true, "us": true, "ns": true,
		"msec": true, "usec": true, "nsec": true,
		"millis": true, "micros": true, "nanos": true,
		"millisecond": true, "milliseconds": true,
		"microsecond": true, "microseconds": true,
		"nanosecond": true, "nanoseconds": true,
		"minute": true, "minutes": true, "hour": true, "hours": true,
		"day": true, "days": true,
	}
	dimFreqWords = map[string]bool{"hz": true, "khz": true, "mhz": true, "ghz": true}
	dimCountWord = map[string]int{
		"frame": dimFrame, "frames": dimFrame,
		"sample": dimSample, "samples": dimSample,
	}
)

// splitWords breaks an identifier into lowercase words at camelCase
// boundaries, digits and underscores: "RingBitRate" -> [ring bit rate],
// "rateBytesPerSec" -> [rate bytes per sec].
func splitWords(name string) []string {
	var words []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			words = append(words, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	runes := []rune(name)
	for i, r := range runes {
		switch {
		case r == '_' || unicode.IsDigit(r):
			flush()
		case unicode.IsUpper(r):
			// New word unless we are inside an acronym run (previous is
			// upper and next is not lower).
			if i > 0 && (!unicode.IsUpper(runes[i-1]) || (i+1 < len(runes) && unicode.IsLower(runes[i+1]))) {
				flush()
			}
			cur.WriteRune(r)
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return words
}

// dimFromName derives a dimension from an identifier's words, or
// ok=false when the name carries none (or mixes bit and byte words — a
// conversion helper, deliberately polymorphic):
//
//	OfferedBits       -> bit        streamBytesPerSec -> byte/s
//	RingBitRate       -> bit/s      WallSeconds       -> s
//	ArrivalsPerSec    -> 1/s        latencyUs         -> s
//	framesPerSec      -> frame/s    sampleHz          -> sample/s
//	frameBytes        -> byte       bytesToBits       -> (none)
//
// Count words (frame, sample) become a numerator only in rate position
// — immediately before Per-<time> or a Hz word. Anywhere else they are
// adjectives: frameBytes is a size in bytes; whether it is byte or
// byte/frame is exactly what a //ctmsvet:unit directive exists to say.
func dimFromName(name string) (Dim, bool) {
	words := splitWords(name)
	var d Dim
	var sawBit, sawByte, seeded bool
	for i := 0; i < len(words); i++ {
		w := words[i]
		switch {
		case dimBitWords[w]:
			sawBit, seeded = true, true
			d.exp[dimBit]++
			// A Rate word directly after bit/byte means per-second.
			if i+1 < len(words) && words[i+1] == "rate" {
				d.exp[dimSec]--
				i++
			}
		case dimByteWords[w]:
			sawByte, seeded = true, true
			d.exp[dimByte]++
			if i+1 < len(words) && words[i+1] == "rate" {
				d.exp[dimSec]--
				i++
			}
		case w == "per" && i+1 < len(words):
			next := words[i+1]
			// A leading "per" leaves the numerator unexpressed (perByte
			// is a cost whose unit the name does not say), so only a
			// "per" with words before it seeds: ArrivalsPerSec, not
			// perByte. The unit word after a leading per is consumed
			// silently so it cannot masquerade as a numerator.
			if i == 0 {
				if dimTimeWords[next] || dimCountWord[next] != 0 || dimBitWords[next] || dimByteWords[next] {
					i++
				}
				break
			}
			switch {
			case dimTimeWords[next]:
				d.exp[dimSec]--
				seeded = true
				i++
			case dimCountWord[next] != 0:
				d.exp[dimCountWord[next]]--
				seeded = true
				i++
			case dimBitWords[next]:
				d.exp[dimBit]--
				seeded = true
				i++
			case dimByteWords[next]:
				d.exp[dimByte]--
				seeded = true
				i++
			}
		case dimFreqWords[w]:
			// sampleHz / frameHz: the count word right before the
			// frequency word became the numerator when it was scanned.
			d.exp[dimSec]--
			seeded = true
		case dimTimeWords[w]:
			d.exp[dimSec]++
			seeded = true
		case dimCountWord[w] != 0:
			// Count word in rate position: framesPerSec, samplesPerSec.
			if i+2 < len(words) && words[i+1] == "per" && dimTimeWords[words[i+2]] {
				d.exp[dimCountWord[w]]++
			} else if i+1 < len(words) && dimFreqWords[words[i+1]] {
				d.exp[dimCountWord[w]]++
			}
			// Otherwise an adjective: contributes nothing.
		}
	}
	if sawBit && sawByte {
		return Dim{}, false // a conversion point, like bytesToBits
	}
	if !seeded || d.IsZero() {
		return Dim{}, false
	}
	return d, true
}
