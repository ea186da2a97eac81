package codec

import "sieve/internal/transform"

// haveSSE2 routes the reconstruct store (writePredBlock, writeResidualBlock),
// the motion-compensated fetch (fetchBlock), the residual (residualBlock)
// and the non-zero mask (nonZeroMask) to their SSE2 kernels, for blocks
// inside the plane. SSE2 is part of every amd64 CPU, so there is nothing to
// detect.
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

// fetchSSE2 is fetchBlockGo (glue_amd64.s): PUNPCKLBW and PUNPCKLWL/HWL
// against zero widen each byte to the int32 it is.
//
//go:noescape
func fetchSSE2(dst *transform.Block, src []byte, stride int)

// residualSSE2 is residualBlockGo (glue_amd64.s): the widened pixels minus
// pred, by PSUBD, which wraps as Go's int32 subtraction does.
//
//go:noescape
func residualSSE2(dst *transform.Block, src []byte, stride int, pred *transform.Block)

// nonZeroSSE2 is nonZeroMaskGo (glue_amd64.s). The saturating packs from
// int32 to int8 keep every non-zero level non-zero, so the byte compare
// against zero sees the same set the Go loop does.
//
//go:noescape
func nonZeroSSE2(lev *transform.Block) uint64
