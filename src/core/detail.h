#ifndef FLASH_CORE_DETAIL_H_
#define FLASH_CORE_DETAIL_H_

#include <type_traits>
#include <utility>

#include "graph/graph.h"

namespace flash::internal {

/// Callback-arity adapters. The paper's pseudocode passes whole vertices
/// (with .id implicitly available) to the user functions; in C++ we let the
/// user lambda declare only the parameters it needs:
///
///   VERTEXMAP F : (v) or (v, id)
///   VERTEXMAP M : (v&) or (v&, id)
///   EDGEMAP   F : (s, d) or (s, d, sid, did) or (s, d, sid, did, weight)
///   EDGEMAP   M : (s, d&) or (s, d&, sid, did) or (s, d&, sid, did, weight)
///   EDGEMAP   C : (d) or (d, id)
///   EDGEMAP   R : (t, d&)
///
/// Wrong arities fail to compile inside the chosen branch with a clear
/// static_assert-like error from std::is_invocable.

template <typename F, typename VData>
bool InvokeVertexF(F&& f, const VData& v, VertexId id) {
  if constexpr (std::is_invocable_r_v<bool, F, const VData&, VertexId>) {
    return f(v, id);
  } else {
    return f(v);
  }
}

template <typename M, typename VData>
void InvokeVertexM(M&& m, VData& v, VertexId id) {
  if constexpr (std::is_invocable_v<M, VData&, VertexId>) {
    m(v, id);
  } else {
    m(v);
  }
}

template <typename F, typename VData>
bool InvokeEdgeF(F&& f, const VData& s, const VData& d, VertexId sid,
                 VertexId did, float w) {
  if constexpr (std::is_invocable_r_v<bool, F, const VData&, const VData&,
                                      VertexId, VertexId, float>) {
    return f(s, d, sid, did, w);
  } else if constexpr (std::is_invocable_r_v<bool, F, const VData&,
                                             const VData&, VertexId,
                                             VertexId>) {
    return f(s, d, sid, did);
  } else {
    return f(s, d);
  }
}

template <typename M, typename VData>
void InvokeEdgeM(M&& m, const VData& s, VData& d, VertexId sid, VertexId did,
                 float w) {
  if constexpr (std::is_invocable_v<M, const VData&, VData&, VertexId,
                                    VertexId, float>) {
    m(s, d, sid, did, w);
  } else if constexpr (std::is_invocable_v<M, const VData&, VData&, VertexId,
                                           VertexId>) {
    m(s, d, sid, did);
  } else {
    m(s, d);
  }
}

template <typename C, typename VData>
bool InvokeCond(C&& c, const VData& d, VertexId id) {
  if constexpr (std::is_invocable_r_v<bool, C, const VData&, VertexId>) {
    return c(d, id);
  } else {
    return c(d);
  }
}

/// Sentinel for VERTEXMAP without a map function (pure filter semantics).
struct NoMap {};

/// Identity of the simulated worker the current thread is executing for.
/// Superstep tasks of different workers run concurrently on the host pool
/// (RuntimeOptions::host_threads), so the execution context must be
/// thread-local rather than an engine member; GraphApi::Read() resolves
/// replica lookups through it.
inline thread_local int tls_worker = 0;

/// Binds the calling thread to worker `w` for the duration of a task.
struct WorkerScope {
  explicit WorkerScope(int w) { tls_worker = w; }
};

}  // namespace flash::internal

namespace flash {

/// The paper's CTRUE: a condition that always holds. Usable for EDGEMAP's F
/// and C and VERTEXMAP's F.
struct CTrueFn {
  template <typename... Args>
  bool operator()(const Args&...) const {
    return true;
  }
};
inline constexpr CTrueFn CTrue{};

}  // namespace flash

#endif  // FLASH_CORE_DETAIL_H_
