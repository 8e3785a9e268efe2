#include "base/simd.h"

#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#define HOMPRES_SIMD_X86 1
#include <immintrin.h>
#else
#define HOMPRES_SIMD_X86 0
#endif

#include <bit>

namespace hompres {
namespace simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar table: the differential baseline. These mirror the inline loops
// in bitset64.h word for word.

int PopcountScalar(const uint64_t* words, int num_words) {
  int count = 0;
  for (int w = 0; w < num_words; ++w) count += std::popcount(words[w]);
  return count;
}

int FindFirstScalar(const uint64_t* words, int num_words) {
  for (int w = 0; w < num_words; ++w) {
    if (words[w] != 0) return w * 64 + std::countr_zero(words[w]);
  }
  return -1;
}

bool IntersectScalar(uint64_t* dst, const uint64_t* src, int num_words) {
  bool changed = false;
  for (int w = 0; w < num_words; ++w) {
    const uint64_t next = dst[w] & src[w];
    changed |= next != dst[w];
    dst[w] = next;
  }
  return changed;
}

void UnionScalar(uint64_t* dst, const uint64_t* src, int num_words) {
  for (int w = 0; w < num_words; ++w) dst[w] |= src[w];
}

bool AnySetScalar(const uint64_t* words, int num_words) {
  for (int w = 0; w < num_words; ++w) {
    if (words[w] != 0) return true;
  }
  return false;
}

bool IntersectsScalar(const uint64_t* a, const uint64_t* b, int num_words) {
  for (int w = 0; w < num_words; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

bool EqualScalar(const uint64_t* a, const uint64_t* b, int num_words) {
  for (int w = 0; w < num_words; ++w) {
    if (a[w] != b[w]) return false;
  }
  return true;
}

// FindNext shares one shape across levels: resolve the partial word after
// `bit` scalar (at most one word), then hand the rest to the level's
// FindFirst. Bit positions, not word contents, get adjusted, so the
// result is identical across levels by construction.
template <int (*FindFirstFn)(const uint64_t*, int)>
int FindNextVia(const uint64_t* words, int num_words, int bit) {
  int w = (bit + 1) >> 6;
  if (w >= num_words) return -1;
  const uint64_t masked = words[w] & (~uint64_t{0} << ((bit + 1) & 63));
  if (masked != 0) return w * 64 + std::countr_zero(masked);
  ++w;
  const int rest = FindFirstFn(words + w, num_words - w);
  return rest < 0 ? -1 : w * 64 + rest;
}

constexpr SimdKernels kScalarKernels = {
    &PopcountScalar,  &FindFirstScalar, &FindNextVia<&FindFirstScalar>,
    &IntersectScalar, &UnionScalar,     &AnySetScalar,
    &IntersectsScalar, &EqualScalar,
};

#if HOMPRES_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 table. 4 words (256 bits) per lane op; ragged tails fall through
// to the scalar loop so the kernels are safe on unpadded buffers. All of
// these compute the same words the scalar loop computes — only the
// grouping differs — so results are bit-identical.

__attribute__((target("avx2"))) int PopcountAvx2(const uint64_t* words,
                                                 int num_words) {
  // Nibble-LUT popcount (Mula): per-byte counts via two PSHUFB lookups,
  // horizontal-summed 8 bytes at a time with PSADBW against zero.
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  __m256i acc = _mm256_setzero_si256();
  int w = 0;
  for (; w + 4 <= num_words; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + w));
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    const __m256i cnt =
        _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                        _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int count = static_cast<int>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; w < num_words; ++w) count += std::popcount(words[w]);
  return count;
}

__attribute__((target("avx2"))) int FindFirstAvx2(const uint64_t* words,
                                                  int num_words) {
  int w = 0;
  for (; w + 4 <= num_words; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + w));
    if (!_mm256_testz_si256(v, v)) break;  // some word in this block is set
  }
  for (; w < num_words; ++w) {
    if (words[w] != 0) return w * 64 + std::countr_zero(words[w]);
  }
  return -1;
}

__attribute__((target("avx2"))) bool IntersectAvx2(uint64_t* dst,
                                                   const uint64_t* src,
                                                   int num_words) {
  __m256i diff = _mm256_setzero_si256();
  int w = 0;
  for (; w + 4 <= num_words; w += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    const __m256i a = _mm256_and_si256(d, s);
    diff = _mm256_or_si256(diff, _mm256_xor_si256(a, d));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), a);
  }
  bool changed = !_mm256_testz_si256(diff, diff);
  for (; w < num_words; ++w) {
    const uint64_t next = dst[w] & src[w];
    changed |= next != dst[w];
    dst[w] = next;
  }
  return changed;
}

__attribute__((target("avx2"))) void UnionAvx2(uint64_t* dst,
                                               const uint64_t* src,
                                               int num_words) {
  int w = 0;
  for (; w + 4 <= num_words; w += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_or_si256(d, s));
  }
  for (; w < num_words; ++w) dst[w] |= src[w];
}

__attribute__((target("avx2"))) bool AnySetAvx2(const uint64_t* words,
                                                int num_words) {
  int w = 0;
  for (; w + 4 <= num_words; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + w));
    if (!_mm256_testz_si256(v, v)) return true;
  }
  for (; w < num_words; ++w) {
    if (words[w] != 0) return true;
  }
  return false;
}

__attribute__((target("avx2"))) bool IntersectsAvx2(const uint64_t* a,
                                                    const uint64_t* b,
                                                    int num_words) {
  int w = 0;
  for (; w + 4 <= num_words; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    if (!_mm256_testz_si256(va, vb)) return true;  // some a & b word set
  }
  for (; w < num_words; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

__attribute__((target("avx2"))) bool EqualAvx2(const uint64_t* a,
                                               const uint64_t* b,
                                               int num_words) {
  int w = 0;
  for (; w + 4 <= num_words; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    const __m256i x = _mm256_xor_si256(va, vb);
    if (!_mm256_testz_si256(x, x)) return false;
  }
  for (; w < num_words; ++w) {
    if (a[w] != b[w]) return false;
  }
  return true;
}

constexpr SimdKernels kAvx2Kernels = {
    &PopcountAvx2,  &FindFirstAvx2, &FindNextVia<&FindFirstAvx2>,
    &IntersectAvx2, &UnionAvx2,     &AnySetAvx2,
    &IntersectsAvx2, &EqualAvx2,
};

// ---------------------------------------------------------------------------
// AVX-512 table. 8 words (512 bits) per lane op. Selected only when F,
// BW and VPOPCNTDQ are all present (vpopcntq carries the popcount
// kernel); otherwise dispatch stops at AVX2.

__attribute__((target("avx512f,avx512vpopcntdq"))) int PopcountAvx512(
    const uint64_t* words, int num_words) {
  __m512i acc = _mm512_setzero_si512();
  int w = 0;
  for (; w + 8 <= num_words; w += 8) {
    const __m512i v = _mm512_loadu_si512(words + w);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  int count = static_cast<int>(_mm512_reduce_add_epi64(acc));
  for (; w < num_words; ++w) count += std::popcount(words[w]);
  return count;
}

__attribute__((target("avx512f"))) int FindFirstAvx512(const uint64_t* words,
                                                       int num_words) {
  int w = 0;
  for (; w + 8 <= num_words; w += 8) {
    const __m512i v = _mm512_loadu_si512(words + w);
    const __mmask8 nz = _mm512_test_epi64_mask(v, v);
    if (nz != 0) {
      const int lane = std::countr_zero(static_cast<unsigned>(nz));
      return (w + lane) * 64 + std::countr_zero(words[w + lane]);
    }
  }
  for (; w < num_words; ++w) {
    if (words[w] != 0) return w * 64 + std::countr_zero(words[w]);
  }
  return -1;
}

__attribute__((target("avx512f"))) bool IntersectAvx512(uint64_t* dst,
                                                        const uint64_t* src,
                                                        int num_words) {
  __mmask8 changed_mask = 0;
  int w = 0;
  for (; w + 8 <= num_words; w += 8) {
    const __m512i d = _mm512_loadu_si512(dst + w);
    const __m512i s = _mm512_loadu_si512(src + w);
    const __m512i a = _mm512_and_si512(d, s);
    changed_mask |= _mm512_cmpneq_epi64_mask(a, d);
    _mm512_storeu_si512(dst + w, a);
  }
  bool changed = changed_mask != 0;
  for (; w < num_words; ++w) {
    const uint64_t next = dst[w] & src[w];
    changed |= next != dst[w];
    dst[w] = next;
  }
  return changed;
}

__attribute__((target("avx512f"))) void UnionAvx512(uint64_t* dst,
                                                    const uint64_t* src,
                                                    int num_words) {
  int w = 0;
  for (; w + 8 <= num_words; w += 8) {
    const __m512i d = _mm512_loadu_si512(dst + w);
    const __m512i s = _mm512_loadu_si512(src + w);
    _mm512_storeu_si512(dst + w, _mm512_or_si512(d, s));
  }
  for (; w < num_words; ++w) dst[w] |= src[w];
}

__attribute__((target("avx512f"))) bool AnySetAvx512(const uint64_t* words,
                                                     int num_words) {
  int w = 0;
  for (; w + 8 <= num_words; w += 8) {
    const __m512i v = _mm512_loadu_si512(words + w);
    if (_mm512_test_epi64_mask(v, v) != 0) return true;
  }
  for (; w < num_words; ++w) {
    if (words[w] != 0) return true;
  }
  return false;
}

__attribute__((target("avx512f"))) bool IntersectsAvx512(const uint64_t* a,
                                                         const uint64_t* b,
                                                         int num_words) {
  int w = 0;
  for (; w + 8 <= num_words; w += 8) {
    const __m512i va = _mm512_loadu_si512(a + w);
    const __m512i vb = _mm512_loadu_si512(b + w);
    if (_mm512_test_epi64_mask(va, vb) != 0) return true;
  }
  for (; w < num_words; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

__attribute__((target("avx512f"))) bool EqualAvx512(const uint64_t* a,
                                                    const uint64_t* b,
                                                    int num_words) {
  int w = 0;
  for (; w + 8 <= num_words; w += 8) {
    const __m512i va = _mm512_loadu_si512(a + w);
    const __m512i vb = _mm512_loadu_si512(b + w);
    if (_mm512_cmpneq_epi64_mask(va, vb) != 0) return false;
  }
  for (; w < num_words; ++w) {
    if (a[w] != b[w]) return false;
  }
  return true;
}

constexpr SimdKernels kAvx512Kernels = {
    &PopcountAvx512,  &FindFirstAvx512, &FindNextVia<&FindFirstAvx512>,
    &IntersectAvx512, &UnionAvx512,     &AnySetAvx512,
    &IntersectsAvx512, &EqualAvx512,
};

#endif  // HOMPRES_SIMD_X86

SimdLevel DetectOnce() {
#if HOMPRES_SIMD_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vpopcntdq")) {
    return SimdLevel::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

SimdLevel ActiveOnce() {
  SimdLevel level = DetectedSimdLevel();
  if (const char* env = std::getenv("HOMPRES_SIMD")) {
    if (const auto forced = ParseSimdLevel(env)) {
      // Clamp down only: HOMPRES_SIMD=avx512 on an AVX2-only host keeps
      // AVX2 rather than executing illegal instructions.
      if (static_cast<int>(*forced) < static_cast<int>(level)) level = *forced;
    }
  }
  return level;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "scalar";
}

std::optional<SimdLevel> ParseSimdLevel(std::string_view name) {
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "avx2") return SimdLevel::kAvx2;
  if (name == "avx512") return SimdLevel::kAvx512;
  return std::nullopt;
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel level = DetectOnce();
  return level;
}

SimdLevel ActiveSimdLevel() {
  // The override hook (ScopedSimdOverride) swaps the kernel table; report
  // whichever table is currently dispatched so plan/bench stamps match
  // the code that actually ran.
  const SimdKernels* active =
      internal::g_active_kernels.load(std::memory_order_relaxed);
  if (active == nullptr) active = internal::InitActiveKernels();
#if HOMPRES_SIMD_X86
  if (active == &kAvx512Kernels) return SimdLevel::kAvx512;
  if (active == &kAvx2Kernels) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

const SimdKernels& KernelsFor(SimdLevel level) {
#if HOMPRES_SIMD_X86
  switch (level) {
    case SimdLevel::kAvx512:
      return kAvx512Kernels;
    case SimdLevel::kAvx2:
      return kAvx2Kernels;
    case SimdLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return kScalarKernels;
}

namespace internal {

std::atomic<const SimdKernels*> g_active_kernels{nullptr};

const SimdKernels* InitActiveKernels() {
  // Racing first calls compute the same table; the store is idempotent.
  const SimdKernels* table = &KernelsFor(ActiveOnce());
  g_active_kernels.store(table, std::memory_order_relaxed);
  return table;
}

}  // namespace internal

ScopedSimdOverride::ScopedSimdOverride(SimdLevel level) {
  const SimdKernels* current =
      internal::g_active_kernels.load(std::memory_order_relaxed);
  if (current == nullptr) current = internal::InitActiveKernels();
  previous_ = current;
  SimdLevel clamped = level;
  if (static_cast<int>(clamped) > static_cast<int>(DetectedSimdLevel())) {
    clamped = DetectedSimdLevel();
  }
  internal::g_active_kernels.store(&KernelsFor(clamped),
                                   std::memory_order_relaxed);
}

ScopedSimdOverride::~ScopedSimdOverride() {
  internal::g_active_kernels.store(previous_, std::memory_order_relaxed);
}

}  // namespace simd
}  // namespace hompres
