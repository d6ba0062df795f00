// Package units is a dim fixture for the bit/byte naming convention:
// mismatched slots, mixed sums and unitless rates, positive and
// negative. The // want comments are golden diagnostics matched by the
// test harness.
package units

// The helpers give the call-argument rule declared parameter names.
func sendBits(frameBits int64)     { _ = frameBits }
func sendBytes(payloadBytes int64) { _ = payloadBytes }

type config struct {
	packetBytes int
	ringBits    int64
	rate        float64 // want `field config.rate is a unitless rate`
	label       string  // non-numeric names carry no unit burden
}

func assigns(packetBytes int) {
	frameBits := int64(packetBytes)    // want `assigned to frameBits: byte value flows into bit slot`
	frameBits = int64(packetBytes) * 8 // the conversion is visible: fine
	wireBytes := int(frameBits) / 8    // so is the other direction
	wireBytes = packetBytes            // bytes into bytes: fine
	_ = wireBytes
	_ = frameBits
}

func mixed(headerBytes, frameBits int) {
	total := headerBytes + frameBits // want `byte \+ bit without a \*8 or /8 conversion`
	_ = total
	wire := headerBytes*8 + frameBits // the 8 marks the conversion: fine
	_ = wire
}

func ambiguousLocal(packetBytes int) {
	rate := float64(packetBytes) / 0.012 // want `rate is a unitless rate holding byte values`
	_ = rate
}

func ambiguousParam(rate int) int64 { // want `parameter rate of ambiguousParam is a unitless rate`
	return int64(rate)
}

func offeredBits(packetBytes int) int64 {
	return int64(packetBytes) // want `returned: byte value flows into bit slot`
}

func offeredBitsOK(packetBytes int) int64 {
	return int64(packetBytes) * 8 // conversion shown: fine
}

func calls(packetBytes, messageBits int64) {
	sendBits(packetBytes)      // want `passed as frameBits to sendBits: byte value flows into bit slot`
	sendBits(packetBytes * 8)  // fine
	sendBytes(messageBits)     // want `passed as payloadBytes to sendBytes: bit value flows into byte slot`
	sendBytes(messageBits / 8) // fine
}

func literals(nBits int64) {
	c := config{packetBytes: int(nBits)} // want `set field packetBytes: bit value flows into byte slot`
	c = config{packetBytes: int(nBits / 8), ringBits: nBits}
	_ = c
}

// A struct literal whose fields carry different units is not "mixing":
// each field answers for itself.
func wholeLiterals(packetBytes int, ringBits int64) config {
	return config{packetBytes: packetBytes, ringBits: ringBits}
}
