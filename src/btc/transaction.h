// Bitcoin transactions: inputs referencing prior outputs, outputs locking
// value to pubkey hashes, canonical serialization, txid computation and
// SIGHASH_ALL-style signature hashing.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "btc/script.h"
#include "btc/types.h"
#include "common/serialize.h"

namespace btcfast::btc {

struct TxIn {
  OutPoint prevout{};
  ScriptSig script_sig{};
  std::uint32_t sequence = 0xffffffff;

  [[nodiscard]] bool operator==(const TxIn& o) const noexcept = default;
};

struct TxOut {
  Amount value = 0;
  ScriptPubKey script_pubkey{};

  [[nodiscard]] bool operator==(const TxOut& o) const noexcept = default;
};

/// A transaction. A coinbase has exactly one input whose prevout is null.
///
/// txid() is memoized: the sha256d is computed once and revalidated
/// against a cheap 128-bit fingerprint of the serialization, so mutating
/// any field (directly or via sign_input) transparently invalidates the
/// cached id — no manual invalidation calls, and stale ids are
/// impossible short of a deliberate 128-bit fingerprint collision.
/// Concurrent txid() calls on the same const object are safe (a striped
/// lock guards the memo; the logical fields are never written).
struct Transaction {
  std::uint32_t version = 1;
  std::vector<TxIn> inputs;
  std::vector<TxOut> outputs;
  std::uint32_t lock_time = 0;

  [[nodiscard]] bool operator==(const Transaction& o) const noexcept {
    // Logical fields only — the txid memo is derived state.
    return version == o.version && inputs == o.inputs && outputs == o.outputs &&
           lock_time == o.lock_time;
  }

  [[nodiscard]] bool is_coinbase() const noexcept {
    return inputs.size() == 1 && inputs[0].prevout.txid.is_zero() &&
           inputs[0].prevout.index == 0xffffffff;
  }

  [[nodiscard]] Amount total_output() const noexcept {
    Amount sum = 0;
    for (const auto& out : outputs) sum += out.value;
    return sum;
  }

  /// Canonical wire serialization (little-endian, CompactSize counts).
  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<Transaction> deserialize(ByteSpan data);

  /// txid = sha256d(serialization). Memoized; see the struct comment.
  [[nodiscard]] Txid txid() const;

  /// SIGHASH_ALL-style digest for signing input `input_index`: the tx with
  /// every scriptSig blanked and the spent scriptPubKey substituted at the
  /// signed input, double-hashed.
  [[nodiscard]] crypto::Sha256Digest signature_hash(std::size_t input_index,
                                                    const ScriptPubKey& spent_script) const;

 private:
  /// txid memo, revalidated by fingerprint. Copies carry the memo along
  /// (still fingerprint-checked, so a stale copy can never serve a wrong
  /// id); the default copy/move of the plain members is exactly right.
  struct TxidMemo {
    std::uint64_t fp[2] = {0, 0};
    Txid id{};
    bool valid = false;
  };
  mutable TxidMemo txid_memo_{};
};

/// One accepted or relayed transaction, shared and immutable: the mempool
/// that holds it and every queued peer delivery point at the same object
/// (Bitcoin Core's CTransactionRef), so relaying copies a pointer, not
/// the inputs and scripts.
using TxRef = std::shared_ptr<const Transaction>;

/// Signs input `input_index` of `tx` with `key`; fills in its scriptSig.
/// Returns the signature's R parity (crypto::ecdsa_sign's `r_odd`), the
/// verify hint a fast-pay package carries for the input.
bool sign_input(Transaction& tx, std::size_t input_index, const crypto::PrivateKey& key,
                const ScriptPubKey& spent_script);

/// Verifies the signature on input `input_index` against the spent output.
[[nodiscard]] bool verify_input(const Transaction& tx, std::size_t input_index,
                                const ScriptPubKey& spent_script);

}  // namespace btcfast::btc
