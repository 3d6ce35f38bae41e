package remote

// Every test of this package runs with released buffers poisoned — responses,
// lent bytes as their loan is given back or revoked, and landed writes' images:
// whatever still reads one through an alias after the host let it go reads
// poisonByte, and the read-your-writes, pipeline and chaos tests, which compare
// every page with its image, fail.
func init() { PoisonReleased(true) }
