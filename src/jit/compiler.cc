#include "jit/compiler.h"

#include <dlfcn.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "jit/codegen.h"
#include "util/check.h"

#ifndef FI_SRC_DIR
#define FI_SRC_DIR "."
#endif

namespace flashinfer::jit {

namespace {

std::mutex g_mu;
std::unordered_map<uint64_t, std::shared_ptr<CompiledKernel>> g_registry;
JitCacheStats g_stats;

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void EnsureDir(const std::string& path) {
  ::mkdir(path.c_str(), 0755);  // EEXIST is fine.
}

int RunCommand(const std::string& cmd) { return std::system(cmd.c_str()); }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// FNV-1a 64 over the relative path and bytes of every header under
/// FI_SRC_DIR, read once per process. Each kernel compiles against those
/// headers' layouts (PagedKVCache, AttentionParams), so the on-disk cache
/// keys on them: a .so built against other headers is never loaded.
uint64_t HeaderFingerprint() {
  static const uint64_t fingerprint = [] {
    namespace fs = std::filesystem;
    std::vector<fs::path> headers;
    for (const auto& entry : fs::recursive_directory_iterator(FI_SRC_DIR)) {
      if (entry.is_regular_file() && entry.path().extension() == ".h") {
        headers.push_back(entry.path());
      }
    }
    std::sort(headers.begin(), headers.end());
    uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const std::string& bytes) {
      for (const unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ull;
    };
    for (const fs::path& header : headers) {
      mix(fs::relative(header, FI_SRC_DIR).string());
      mix(ReadFile(header.string()));
    }
    return h;
  }();
  return fingerprint;
}

std::shared_ptr<CompiledKernel> LoadSo(const std::string& so_path) {
  void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    FI_CHECK(false);
  }
  auto* fn = reinterpret_cast<WorkItemFn>(::dlsym(handle, kEntrySymbol));
  FI_CHECK(fn != nullptr);
  auto* flags_fn = reinterpret_cast<uint32_t (*)()>(::dlsym(handle, kFlagsSymbol));
  FI_CHECK(flags_fn != nullptr);
  const bool use_softmax = (flags_fn() & 1u) != 0;
  return std::make_shared<CompiledKernel>(handle, fn, use_softmax, so_path);
}

}  // namespace

CompiledKernel::CompiledKernel(void* dl_handle, WorkItemFn fn, bool use_softmax,
                               std::string so_path)
    : dl_handle_(dl_handle), fn_(fn), use_softmax_(use_softmax), so_path_(std::move(so_path)) {}

CompiledKernel::~CompiledKernel() {
  if (dl_handle_ != nullptr) ::dlclose(dl_handle_);
}

bool CompilerAvailable(const JitOptions& opts) {
  const std::string cmd = opts.compiler + " --version > /dev/null 2>&1";
  return RunCommand(cmd) == 0;
}

std::shared_ptr<CompiledKernel> CompileVariant(const AttentionSpecDesc& spec,
                                               const JitOptions& opts) {
  ValidateSpec(spec);
  const uint64_t hash = SpecHash(spec);

  std::lock_guard<std::mutex> lock(g_mu);
  if (const auto it = g_registry.find(hash); it != g_registry.end()) {
    ++g_stats.memory_hits;
    return it->second;
  }

  EnsureDir(opts.cache_dir);
  std::ostringstream base;
  base << opts.cache_dir << "/" << spec.name << "_" << std::hex << hash << "_"
       << HeaderFingerprint();
  const std::string src_path = base.str() + ".cpp";
  const std::string so_path = base.str() + ".so";
  const std::string log_path = base.str() + ".log";

  if (!FileExists(so_path)) {
    const std::string source = GenerateSource(spec);
    {
      std::ofstream out(src_path);
      FI_CHECK(out.good());
      out << source;
    }
    std::ostringstream cmd;
    cmd << opts.compiler << " -std=c++20 " << opts.extra_flags
        << " -fPIC -shared -I" << FI_SRC_DIR << " " << src_path << " -o " << so_path << " 2> "
        << log_path;
    if (opts.verbose) {
      std::fprintf(stderr, "[fi-jit] %s\n", cmd.str().c_str());
    }
    const int rc = RunCommand(cmd.str());
    if (rc != 0) {
      std::fprintf(stderr, "[fi-jit] compilation of variant '%s' failed:\n%s\n",
                   spec.name.c_str(), ReadFile(log_path).c_str());
      FI_CHECK(false);
    }
    ++g_stats.compilations;
  } else {
    ++g_stats.disk_hits;
  }

  auto kernel = LoadSo(so_path);
  FI_CHECK_EQ(kernel->use_softmax(), spec.use_softmax);
  g_registry.emplace(hash, kernel);
  return kernel;
}

JitCacheStats GetJitCacheStats() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_stats;
}

}  // namespace flashinfer::jit
