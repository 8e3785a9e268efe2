// Shared 64-bit mixing primitive.
//
// Mix64 is the splitmix64 finalizer: a cheap bijective scrambler with
// full avalanche, good enough for every non-adversarial hash in this
// library. It is chained value-by-value to build order-sensitive digests
// (Structure::Fingerprint, the hom-cache option digests) and used as the
// per-field mixer of cache key hashes (hom/hom_cache.h, opt/optimizer.h).

#ifndef HOMPRES_BASE_HASH_H_
#define HOMPRES_BASE_HASH_H_

#include <cstdint>

namespace hompres {

inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace hompres

#endif  // HOMPRES_BASE_HASH_H_
