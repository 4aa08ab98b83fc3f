package main

import (
	"encoding/binary"
	"strings"
)

func cpuid(leaf uint32) (a, b, c, d uint32)

// cpuModel reads the processor brand string with the CPUID instruction, so
// the benchmark records the CPU without reading files outside its checkout.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000); max < 0x80000004 {
		return "unknown"
	}
	var buf [48]byte
	for i, leaf := range []uint32{0x80000002, 0x80000003, 0x80000004} {
		a, b, c, d := cpuid(leaf)
		for j, r := range []uint32{a, b, c, d} {
			binary.LittleEndian.PutUint32(buf[i*16+j*4:], r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(buf[:]), "\x00"))
}
