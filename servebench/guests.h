// Guest modules the served-path benchmark submits, generated from a seed.
//
// Every module is handed to the host as a binary .wasm artifact (what a
// registry would store and ModuleCache::Load hashes), never as a parsed
// module, so each submit pays the real cache-resolution cost.
#ifndef SERVEBENCH_GUESTS_H_
#define SERVEBENCH_GUESTS_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace servebench {

// splitmix64: the benchmark's only source of randomness, so one seed
// reproduces every module variant and every request sequence.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, n); n > 0.
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }

 private:
  uint64_t state_;
};

// WAT text -> validated module -> binary .wasm bytes.
common::StatusOr<std::string> EncodeWat(const std::string& wat);

// Call-dense short guest: `iters` loop iterations, each calling two of
// `funcs` seeded one-line functions and storing into a 64-page memory, with
// a getpid syscall every 64 iterations. Returns a checksum of the seeded
// constants as its exit code.
std::string ShortGuestWat(uint64_t seed, int iters, int funcs);

// One side of a pipe ping-pong pair. argv[1] and argv[2] are the read and
// write fds as 4 digits, argv[3] a 9-digit payload seed. The pinger writes
// `messages` 64-byte messages, reads each echo back and compares it with
// what it sent; the echoer reads and writes each message back unchanged.
// Both exit 0, or 100 (short write), 101 (short read), 102 (echo mismatch).
// Each message costs each side one read and one write, both blocking.
std::string PipeGuestWat(bool pinger, int messages);

// Sleeping guest: `sleeps` rounds of compute (`compute` iterations writing
// 16 KiB of memory) followed by a 5 ms nanosleep, then a final compute
// round. Exits with a checksum over its locals and the written memory, so a
// snapshot that loses either shows up as a wrong exit code.
std::string SleepGuestWat(uint64_t seed, int sleeps, int compute);

// Fixed-width decimal, as the pipe guests parse their argv.
std::string Digits(uint64_t value, int width);

}  // namespace servebench

#endif  // SERVEBENCH_GUESTS_H_
