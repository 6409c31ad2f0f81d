/**
 * @file
 * Clang Thread Safety Analysis annotation macros.
 *
 * These wrap the `__attribute__((capability))` family so every shared
 * field can name its guarding capability (GUARDED_BY) and every
 * lock-shaped function can declare what it acquires, releases, or
 * requires. Under Clang with -Wthread-safety (the SAFEMEM_THREAD_SAFETY
 * CMake option turns it on as an error), violations of the declared
 * discipline fail the build; under any other compiler every macro
 * expands to nothing, so the annotated tree builds identically with GCC.
 *
 * The vocabulary follows the Clang documentation and the LLVM/abseil
 * convention:
 *
 *  - CAPABILITY(name) / SCOPED_CAPABILITY mark classes that *are* locks
 *    (safemem::Mutex and its RAII guard MutexLock);
 *  - GUARDED_BY(mu) / PT_GUARDED_BY(mu) mark the data a lock protects;
 *  - REQUIRES / ACQUIRE / RELEASE / TRY_ACQUIRE / EXCLUDES describe a
 *    function's locking contract;
 *  - ACQUIRED_BEFORE / ACQUIRED_AFTER declare lock-ordering edges (the
 *    beta analysis enforces them — see the lock hierarchy in
 *    docs/MECHANISM.md §11);
 *  - NO_THREAD_SAFETY_ANALYSIS opts a function out, reserved for the
 *    handful of trampolines whose acquire/release pairing spans call
 *    paths the analysis cannot see (scrub hooks).
 */

#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define SAFEMEM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SAFEMEM_THREAD_ANNOTATION(x) // no-op outside Clang
#endif

#define CAPABILITY(x) SAFEMEM_THREAD_ANNOTATION(capability(x))

#define SCOPED_CAPABILITY SAFEMEM_THREAD_ANNOTATION(scoped_lockable)

#define GUARDED_BY(x) SAFEMEM_THREAD_ANNOTATION(guarded_by(x))

#define PT_GUARDED_BY(x) SAFEMEM_THREAD_ANNOTATION(pt_guarded_by(x))

#define ACQUIRED_BEFORE(...) \
    SAFEMEM_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...) \
    SAFEMEM_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

#define REQUIRES(...) \
    SAFEMEM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

#define REQUIRES_SHARED(...) \
    SAFEMEM_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

#define ACQUIRE(...) \
    SAFEMEM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) \
    SAFEMEM_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

#define RELEASE(...) \
    SAFEMEM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) \
    SAFEMEM_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

#define RELEASE_GENERIC(...) \
    SAFEMEM_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

#define TRY_ACQUIRE(...) \
    SAFEMEM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

#define TRY_ACQUIRE_SHARED(...) \
    SAFEMEM_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

#define EXCLUDES(...) SAFEMEM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) SAFEMEM_THREAD_ANNOTATION(assert_capability(x))

#define ASSERT_SHARED_CAPABILITY(x) \
    SAFEMEM_THREAD_ANNOTATION(assert_shared_capability(x))

#define RETURN_CAPABILITY(x) SAFEMEM_THREAD_ANNOTATION(lock_returned(x))

#define NO_THREAD_SAFETY_ANALYSIS \
    SAFEMEM_THREAD_ANNOTATION(no_thread_safety_analysis)
