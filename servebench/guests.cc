#include "servebench/guests.h"

#include <cstdio>

#include "src/wasm/encode.h"
#include "src/wasm/wat_parser.h"

namespace servebench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

common::StatusOr<std::string> EncodeWat(const std::string& wat) {
  auto parsed = wasm::ParseAndValidateWat(wat);
  if (!parsed.ok()) return parsed.status();
  std::vector<uint8_t> bin = wasm::EncodeModule(**parsed);
  return std::string(reinterpret_cast<const char*>(bin.data()), bin.size());
}

std::string Digits(uint64_t value, int width) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%0*llu", width,
                static_cast<unsigned long long>(value));
  return buf;
}

std::string ShortGuestWat(uint64_t seed, int iters, int funcs) {
  Rng rng(seed);
  std::string wat = R"((module
  (import "wali" "SYS_getpid" (func $getpid (result i64)))
  (memory 64)
  (data (i32.const 16) "servebench short guest")
)";
  for (int i = 0; i < funcs; ++i) {
    wat += "  (func $f" + std::to_string(i) +
           " (param $x i32) (result i32)\n"
           "    (i32.add (i32.mul (local.get $x) (i32.const " +
           std::to_string(1 + 2 * rng.Below(1000)) + "))\n             (i32.const " +
           std::to_string(rng.Below(100000)) + ")))\n";
  }
  const std::string a = "$f" + std::to_string(rng.Below(funcs));
  const std::string b = "$f" + std::to_string(rng.Below(funcs));
  wat += R"(  (func (export "main") (result i32)
    (local $i i32)
    (local $acc i32)
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const )" +
         std::to_string(iters) + R"()))
        (if (i32.eqz (i32.and (local.get $i) (i32.const 63)))
          (then (drop (call $getpid))))
        (local.set $acc (call )" + a + R"( (i32.xor (local.get $acc) (local.get $i))))
        (local.set $acc (i32.add (local.get $acc) (call )" + b + R"( (local.get $i))))
        (i32.store (i32.add (i32.const 4096)
                            (i32.shl (i32.and (local.get $i) (i32.const 1023))
                                     (i32.const 2)))
                   (local.get $acc))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    (i32.and (local.get $acc) (i32.const 0x7fffffff)))
)
)";
  return wat;
}

std::string PipeGuestWat(bool pinger, int messages) {
  std::string wat = R"((module
  (import "wali" "SYS_read" (func $read (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_write" (func $write (param i64 i64 i64) (result i64)))
  (import "wali" "copy_argv" (func $copy_argv (param i64 i64) (result i64)))
  (memory 1)
  ;; argv[i] as a `digits`-wide decimal number.
  (func $arg (param $i i32) (param $digits i32) (result i32)
    (local $k i32) (local $v i32)
    (drop (call $copy_argv (i64.const 256) (i64.extend_i32_u (local.get $i))))
    (block $done
      (loop $l
        (br_if $done (i32.ge_u (local.get $k) (local.get $digits)))
        (local.set $v (i32.add (i32.mul (local.get $v) (i32.const 10))
                               (i32.sub (i32.load8_u (i32.add (i32.const 256) (local.get $k)))
                                        (i32.const 48))))
        (local.set $k (i32.add (local.get $k) (i32.const 1)))
        (br $l)))
    (local.get $v))
  (func (export "main") (result i32)
    (local $r i64) (local $w i64) (local $s i32) (local $m i32) (local $k i32)
    (local.set $r (i64.extend_i32_u (call $arg (i32.const 1) (i32.const 4))))
    (local.set $w (i64.extend_i32_u (call $arg (i32.const 2) (i32.const 4))))
    (local.set $s (call $arg (i32.const 3) (i32.const 9)))
    (block $out
      (loop $msg
        (br_if $out (i32.ge_u (local.get $m) (i32.const )" +
                    std::to_string(messages) + ")))\n";
  if (pinger) {
    wat += R"(        (local.set $k (i32.const 0))
        (block $filled
          (loop $fill
            (br_if $filled (i32.ge_u (local.get $k) (i32.const 64)))
            (i32.store8 (i32.add (i32.const 1024) (local.get $k))
                        (i32.add (local.get $s)
                                 (i32.add (i32.mul (local.get $m) (i32.const 131))
                                          (i32.mul (local.get $k) (i32.const 7)))))
            (local.set $k (i32.add (local.get $k) (i32.const 1)))
            (br $fill)))
        (if (i64.ne (call $write (local.get $w) (i64.const 1024) (i64.const 64)) (i64.const 64))
          (then (return (i32.const 100))))
        (if (i64.ne (call $read (local.get $r) (i64.const 2048) (i64.const 64)) (i64.const 64))
          (then (return (i32.const 101))))
        (local.set $k (i32.const 0))
        (block $checked
          (loop $check
            (br_if $checked (i32.ge_u (local.get $k) (i32.const 64)))
            (if (i32.ne (i32.load8_u (i32.add (i32.const 1024) (local.get $k)))
                        (i32.load8_u (i32.add (i32.const 2048) (local.get $k))))
              (then (return (i32.const 102))))
            (local.set $k (i32.add (local.get $k) (i32.const 1)))
            (br $check)))
)";
  } else {
    wat += R"(        (if (i64.ne (call $read (local.get $r) (i64.const 1024) (i64.const 64)) (i64.const 64))
          (then (return (i32.const 101))))
        (if (i64.ne (call $write (local.get $w) (i64.const 1024) (i64.const 64)) (i64.const 64))
          (then (return (i32.const 100))))
)";
  }
  wat += R"(        (local.set $m (i32.add (local.get $m) (i32.const 1)))
        (br $msg)))
    (i32.const 0))
)
)";
  return wat;
}

std::string SleepGuestWat(uint64_t seed, int sleeps, int compute) {
  Rng rng(seed);
  const std::string mul = std::to_string(3 + 2 * rng.Below(10000));
  return R"((module
  (import "wali" "SYS_nanosleep" (func $nanosleep (param i64 i64) (result i64)))
  (memory 4)
  (func (export "main") (result i32)
    (local $n i32) (local $i i32) (local $acc i32)
    ;; timespec at 512: 0 s, 5'000'000 ns
    (i64.store (i32.const 512) (i64.const 0))
    (i64.store (i32.const 520) (i64.const 5000000))
    (local.set $acc (i32.const )" +
         std::to_string(rng.Below(1u << 30)) + R"())
    (block $out
      (loop $round
        (local.set $i (i32.const 0))
        (block $computed
          (loop $c
            (br_if $computed (i32.ge_u (local.get $i) (i32.const )" +
         std::to_string(compute) + R"()))
            (local.set $acc (i32.add (i32.mul (local.get $acc) (i32.const )" + mul +
         R"())
                                     (local.get $i)))
            (i32.store (i32.add (i32.const 4096)
                                (i32.shl (i32.and (local.get $i) (i32.const 4095))
                                         (i32.const 2)))
                       (local.get $acc))
            (local.set $i (i32.add (local.get $i) (i32.const 1)))
            (br $c)))
        (br_if $out (i32.ge_u (local.get $n) (i32.const )" +
         std::to_string(sleeps) + R"()))
        (if (i64.ne (call $nanosleep (i64.const 512) (i64.const 0)) (i64.const 0))
          (then (return (i32.const -1))))
        (local.set $n (i32.add (local.get $n) (i32.const 1)))
        (br $round)))
    ;; fold the written memory back in: a restore that lost it changes the result
    (local.set $i (i32.const 0))
    (block $summed
      (loop $s
        (br_if $summed (i32.ge_u (local.get $i) (i32.const 16384)))
        (local.set $acc (i32.xor (i32.rotl (local.get $acc) (i32.const 1))
                                 (i32.load (i32.add (i32.const 4096) (local.get $i)))))
        (local.set $i (i32.add (local.get $i) (i32.const 4)))
        (br $s)))
    (i32.and (local.get $acc) (i32.const 0x7fffffff)))
)
)";
}

}  // namespace servebench
