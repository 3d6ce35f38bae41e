package remote

// Every test of this package runs with released response buffers poisoned,
// and lent bytes too, as their loan is given back or revoked: whatever still
// reads a response through an alias after the host gave its buffer or loan
// back reads this byte, and the read-your-writes, pipeline and chaos tests,
// which compare every page with its image, fail.
const poisonByte = 0xDB

func init() {
	poisonReleased = func(buf []byte) {
		for i := range buf {
			buf[i] = poisonByte
		}
	}
}
