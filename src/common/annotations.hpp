#pragma once
// Thread-safety annotation macros (clang -Wthread-safety).
//
// SIMTY_GUARDED_BY(m) marks a variable as protected by mutex `m`;
// SIMTY_REQUIRES(m) marks a function as callable only with `m` held.
// clang's -Wthread-safety analysis checks them when the attributes are
// real. std::mutex/std::lock_guard/std::unique_lock only carry capability
// attributes under libc++ with -D_LIBCPP_ENABLE_THREAD_SAFETY_ANNOTATIONS
// (libstdc++ has none), so the attributes expand only in that
// configuration — anywhere else they vanish and the declaration is
// unchanged. The CI clang-tidy job compiles every TU that uses these
// macros in exactly that configuration with -Werror=thread-safety.
//
// Keep the macro set minimal: annotate state, not choreography. If a new
// use needs ACQUIRE/RELEASE choreography, grow this header then.

#include <version>  // defines _LIBCPP_VERSION under libc++

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define SIMTY_HAS_THREAD_SAFETY_ATTRIBUTES 1
#endif
#endif

// The std lock types are only capabilities under libc++ with the opt-in
// define; expanding guarded_by against a non-capability std::mutex makes
// every correct access a false positive, so gate on that exact setup.
#if defined(SIMTY_HAS_THREAD_SAFETY_ATTRIBUTES) && \
    defined(_LIBCPP_VERSION) && defined(_LIBCPP_ENABLE_THREAD_SAFETY_ANNOTATIONS)
#define SIMTY_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SIMTY_THREAD_ANNOTATION(x)
#endif

/// Data member / variable readable and writable only with `x` held.
#define SIMTY_GUARDED_BY(x) SIMTY_THREAD_ANNOTATION(guarded_by(x))

/// Pointer whose pointee (not the pointer itself) is protected by `x`.
#define SIMTY_PT_GUARDED_BY(x) SIMTY_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function that must be entered with the named mutex(es) already held.
#define SIMTY_REQUIRES(...) SIMTY_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function that must NOT be entered with the named mutex(es) held.
#define SIMTY_EXCLUDES(...) SIMTY_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Escape hatch for code the analysis cannot follow (init/teardown paths).
#define SIMTY_NO_THREAD_SAFETY_ANALYSIS SIMTY_THREAD_ANNOTATION(no_thread_safety_analysis)
