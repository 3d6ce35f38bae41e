// Package pageimg defines the benchmark's page contents: every 64-byte slot
// of every page is a pure function of (page, slot, version), so the driver
// can check any read without keeping a copy of the data set, and the probes
// time the codecs on exactly the bytes the workloads move.
package pageimg

import "encoding/binary"

const (
	// PageSize is the 4 KB page of the remote-memory substrate.
	PageSize = 4096
	// SlotSize is one application access: a 64-byte load or store.
	SlotSize = 64
	// Slots is the number of slots in a page.
	Slots = PageSize / SlotSize
	// randomBytes is the incompressible head of a slot; the rest repeats
	// across slots, which is what an LZ codec finds. 14 of 64 bytes lands
	// the repo codec at ~3.5x, inside the 3-4x the issue asks for.
	randomBytes = 14
)

// filler is the part of a slot every slot shares.
var filler = [SlotSize]byte{}

func init() {
	for i := range filler {
		filler[i] = byte('a' + i%23)
	}
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// FillSlot writes the image of (page, slot, version) into dst[:SlotSize].
func FillSlot(dst []byte, page int64, slot int, version uint32) {
	_ = dst[SlotSize-1]
	h := mix(uint64(page)<<20 ^ uint64(slot)<<8 ^ uint64(version)<<40)
	binary.LittleEndian.PutUint64(dst[0:], h)
	binary.LittleEndian.PutUint64(dst[8:], mix(h)) // its tail is overwritten below
	copy(dst[randomBytes:SlotSize], filler[randomBytes:])
}

// FillPage writes the version-0 image of page into dst[:PageSize].
func FillPage(dst []byte, page int64) {
	for s := 0; s < Slots; s++ {
		FillSlot(dst[s*SlotSize:], page, s, 0)
	}
}
