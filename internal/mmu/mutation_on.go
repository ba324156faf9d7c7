//go:build mirage_mutation

package mmu

// mutateStaleHit: MUTATION BUILD. Invalidate leaves the frame mapped
// for hits at read-only, so a site keeps reading its copy after the
// protocol revoked it. Only the mutation test builds with this tag; it
// asserts the coherence checker reports the stale reads.
const mutateStaleHit = true
