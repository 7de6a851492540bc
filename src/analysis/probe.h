// Access probes: the runtime hook layer of the scope-conformance
// analyzer (DESIGN.md Sec. 9). Column/Table/Database call ProbeRead /
// ProbeWrite on every cell access; with no sink installed (the normal
// case) a probe is one thread-local null check. The coordinator
// installs a per-tool FootprintRecorder (scope_checker.h) around each
// Tweak, and the recorded footprint is diffed against the tool's
// DeclaredScope() — catching the undeclared *reads* that the write-only
// scope guard of the O1-parallel pass cannot see.
//
// This header is intentionally dependency-free (no relational/ or
// aspect/ includes) so the relational layer can call the probes without
// a link-time dependency on the analysis library.
#pragma once

namespace aspect::analysis {

/// Column-index sentinels of a probed atom, numerically identical to
/// AccessScope::kWholeTable / kRowStructure (access_scope.h keeps them
/// in sync with a static_assert).
inline constexpr int kProbeWholeTable = -1;
/// Row-structure access: liveness bits, slot counts, and tuple
/// inserts/deletes — distinct from the cells of any one column.
inline constexpr int kProbeRowStructure = -2;

/// Receiver of probe events. Implementations must be cheap (a probe
/// can fire for every cell read of a scan) and are used strictly
/// thread-locally: the installing thread is the only caller.
class AccessProbeSink {
 public:
  virtual ~AccessProbeSink() = default;
  virtual void OnRead(int table, int column) = 0;
  virtual void OnWrite(int table, int column) = 0;
};

namespace internal {
/// The calling thread's installed sink (null = probes disabled). A
/// plain thread_local keeps installation race-free by construction:
/// parallel-pass tasks record into private recorders without sharing.
inline thread_local AccessProbeSink* tls_sink = nullptr;
}  // namespace internal

inline bool ProbeInstalled() { return internal::tls_sink != nullptr; }

/// Records a read of (table, column) against the installed sink, if
/// any. A negative table (unset probe id) is ignored.
inline void ProbeRead(int table, int column) {
  if (internal::tls_sink != nullptr && table >= 0) {
    internal::tls_sink->OnRead(table, column);
  }
}

/// Records a write of (table, column) against the installed sink.
inline void ProbeWrite(int table, int column) {
  if (internal::tls_sink != nullptr && table >= 0) {
    internal::tls_sink->OnWrite(table, column);
  }
}

/// RAII sink installation for the current thread. Nesting restores the
/// previous sink on destruction.
class ScopedAccessProbe {
 public:
  explicit ScopedAccessProbe(AccessProbeSink* sink)
      : prev_(internal::tls_sink) {
    internal::tls_sink = sink;
  }
  ~ScopedAccessProbe() { internal::tls_sink = prev_; }

  ScopedAccessProbe(const ScopedAccessProbe&) = delete;
  ScopedAccessProbe& operator=(const ScopedAccessProbe&) = delete;

 private:
  AccessProbeSink* prev_;
};

/// RAII probe suppression: the framework uses this around work that is
/// not the instrumented tool's own access — pre-image capture, listener
/// notification, validator voting, undo — so footprints are attributed
/// to the right party.
class ScopedProbeSuppress {
 public:
  ScopedProbeSuppress() : prev_(internal::tls_sink) {
    internal::tls_sink = nullptr;
  }
  ~ScopedProbeSuppress() { internal::tls_sink = prev_; }

  ScopedProbeSuppress(const ScopedProbeSuppress&) = delete;
  ScopedProbeSuppress& operator=(const ScopedProbeSuppress&) = delete;

 private:
  AccessProbeSink* prev_;
};

}  // namespace aspect::analysis
