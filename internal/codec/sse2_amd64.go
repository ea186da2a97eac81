package codec

import "sieve/internal/transform"

// haveSSE2 routes writePredBlock and writeResidualBlock to storePredSSE2
// and storeResidualSSE2 for blocks inside the plane. SSE2 is part of every
// amd64 CPU, so there is nothing to detect.
const haveSSE2 = true

// storeResidualSSE2 is writeResidualBlockGo for an 8×8 block wholly inside
// the plane (store_amd64.s): dst[0] is the block's top-left pixel and rows
// lie stride bytes apart. PADDD wraps as int32 addition does, and PACKSSDW
// then PACKUSWB saturate to [-32768, 32767] and then to [0, 255], which is
// frame.Clamp of the sum for every pair of int32s.
//
//go:noescape
func storeResidualSSE2(dst []byte, stride int, pred, res *transform.Block)

// storePredSSE2 is storeResidualSSE2 without the residual: writePredBlockGo
// for an in-plane block.
//
//go:noescape
func storePredSSE2(dst []byte, stride int, pred *transform.Block)
