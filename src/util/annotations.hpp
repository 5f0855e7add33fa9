// Clang Thread Safety Analysis annotations for xatpg.
//
// The ATPG engine's correctness argument leans on concurrency invariants the
// compiler normally never sees: which fields a mutex guards, which functions
// must (or must not) hold it, and which data is published lock-free under a
// documented protocol.  These macros expose the invariants to Clang's
// -Wthread-safety static analysis (a compile-time capability system over
// locks — see https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) while
// expanding to nothing on compilers without the attribute, so annotated code
// stays portable to gcc.
//
// Build with -DXATPG_THREAD_SAFETY=ON (Clang only) to turn the analysis on
// as -Wthread-safety -Werror; the CI lint job does this on every push.
//
// Conventions:
//  * Data members guarded by a lock get XATPG_GUARDED_BY(mutex_).
//  * Functions that must be called with a lock held get XATPG_REQUIRES(m);
//    functions that acquire/release get XATPG_ACQUIRE(m)/XATPG_RELEASE(m).
//  * Lock-free state (the block cursor and per-worker item counters of
//    AtpgEngine::fan_out) has no capability to annotate — its publication
//    protocol is documented at the definition and checked dynamically
//    under the TSan CI job instead.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define XATPG_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef XATPG_THREAD_ANNOTATION
#define XATPG_THREAD_ANNOTATION(x)  // compiles away off-Clang
#endif

/// Marks a type as a capability (a lock) the analysis can track.
#define XATPG_CAPABILITY(x) XATPG_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define XATPG_SCOPED_CAPABILITY XATPG_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only with the capability held.
#define XATPG_GUARDED_BY(x) XATPG_THREAD_ANNOTATION(guarded_by(x))

/// Function precondition: capability (exclusively) held by the caller.
#define XATPG_REQUIRES(...) \
  XATPG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability and does not release it.
#define XATPG_ACQUIRE(...) \
  XATPG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases a capability the caller holds.
#define XATPG_RELEASE(...) \
  XATPG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function must be called WITHOUT the capability held (deadlock guard).
#define XATPG_EXCLUDES(...) \
  XATPG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
