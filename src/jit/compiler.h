// JIT compilation pipeline: spec -> generated C++ -> g++ -O2 -shared ->
// dlopen -> type-erased kernel (the host-compiler analog of FlashInfer's
// NVRTC/torch-extension path, Sec. 3.2.3).
//
// Compiled objects are cached twice: an in-process registry keyed by spec
// hash (repeat CompileVariant calls return the same handle) and an on-disk
// cache of .so files (repeat processes skip compilation entirely), matching
// the paper's "kernels are JIT-compiled at init time and cached for reuse".
// A .so is named by its spec hash and a fingerprint of the headers it
// compiles against, so a cache left by a build with other headers is
// recompiled, not loaded.
#pragma once

#include <memory>
#include <string>

#include "core/kernel_dispatch.h"
#include "jit/spec.h"

namespace flashinfer::jit {

struct JitOptions {
  /// Directory for generated sources and .so files.
  std::string cache_dir = "/tmp/flashinfer_sim_jit";
  std::string compiler = "g++";
  std::string extra_flags = "-O2";
  bool verbose = false;
};

/// A loaded kernel; keeps its dlopen handle alive for the lifetime of the
/// object (kernel function pointers must not outlive it).
class CompiledKernel {
 public:
  CompiledKernel(void* dl_handle, WorkItemFn fn, bool use_softmax, std::string so_path);
  ~CompiledKernel();
  CompiledKernel(const CompiledKernel&) = delete;
  CompiledKernel& operator=(const CompiledKernel&) = delete;

  WorkItemFn fn() const noexcept { return fn_; }
  bool use_softmax() const noexcept { return use_softmax_; }
  const std::string& so_path() const noexcept { return so_path_; }

 private:
  void* dl_handle_;
  WorkItemFn fn_;
  bool use_softmax_;
  std::string so_path_;
};

/// Returns true when a working host compiler is available (tests skip the
/// real-compilation paths otherwise).
bool CompilerAvailable(const JitOptions& opts = {});

/// Compiles (or loads from cache) the kernel for `spec`. Aborts on compile
/// errors with the compiler log. Thread-compatible (callers serialize).
std::shared_ptr<CompiledKernel> CompileVariant(const AttentionSpecDesc& spec,
                                               const JitOptions& opts = {});

/// In-process cache statistics (for tests and the quickstart example).
struct JitCacheStats {
  int64_t compilations = 0;
  int64_t memory_hits = 0;
  int64_t disk_hits = 0;
};
JitCacheStats GetJitCacheStats();

}  // namespace flashinfer::jit
