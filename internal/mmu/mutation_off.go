//go:build !mirage_mutation

package mmu

// mutateStaleHit is the production value of the hit-path mutation
// switch: Invalidate unmaps the frame and republishes the page as
// invalid before it returns. Building with -tags mirage_mutation flips
// it so the live mutation test can prove the coherence checker catches
// hits served from a revoked copy.
const mutateStaleHit = false
