#include "btc/transaction.h"

#include <array>
#include <cstdint>
#include <mutex>

namespace btcfast::btc {
namespace {

void write_outpoint(Writer& w, const OutPoint& op) {
  w.bytes({op.txid.bytes.data(), op.txid.bytes.size()});
  w.u32le(op.index);
}

std::optional<OutPoint> read_outpoint(Reader& r) {
  auto txid = r.bytes(32);
  auto index = r.u32le();
  if (!txid || !index) return std::nullopt;
  OutPoint op;
  op.txid.bytes = to_array<32>(*txid);
  op.index = *index;
  return op;
}

void write_tx(Writer& w, const Transaction& tx, bool with_scripts,
              std::size_t signed_input = SIZE_MAX, const ScriptPubKey* spent_script = nullptr) {
  w.u32le(tx.version);
  w.varint(tx.inputs.size());
  for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
    const TxIn& in = tx.inputs[i];
    write_outpoint(w, in.prevout);
    if (with_scripts) {
      // scriptSig: 64-byte signature + 33-byte pubkey, length-prefixed.
      Writer script;
      script.bytes({in.script_sig.signature.data(), in.script_sig.signature.size()});
      script.bytes({in.script_sig.pubkey.data(), in.script_sig.pubkey.size()});
      w.bytes_with_len(script.data());
    } else if (i == signed_input && spent_script != nullptr) {
      // Sighash form: the spent scriptPubKey stands in at the signed input.
      Writer script;
      script.bytes({spent_script->dest.bytes.data(), spent_script->dest.bytes.size()});
      w.bytes_with_len(script.data());
    } else {
      w.varint(0);
    }
    w.u32le(in.sequence);
  }
  w.varint(tx.outputs.size());
  for (const TxOut& out : tx.outputs) {
    w.i64le(out.value);
    w.bytes_with_len({out.script_pubkey.dest.bytes.data(), out.script_pubkey.dest.bytes.size()});
  }
  w.u32le(tx.lock_time);
}

}  // namespace

Bytes Transaction::serialize() const {
  Writer w;
  // Upper bound: version + counts + (outpoint + script + sequence) per
  // input + (value + script) per output + lock_time.
  w.reserve(4 + 9 + inputs.size() * (36 + 1 + 97 + 4) + 9 + outputs.size() * (8 + 1 + 20) + 4);
  write_tx(w, *this, /*with_scripts=*/true);
  return std::move(w).take();
}

std::optional<Transaction> Transaction::deserialize(ByteSpan data) {
  Reader r(data);
  Transaction tx;
  auto version = r.u32le();
  auto nin = r.varint();
  if (!version || !nin || *nin > 100000) return std::nullopt;
  tx.version = *version;
  tx.inputs.reserve(static_cast<std::size_t>(*nin));
  for (std::uint64_t i = 0; i < *nin; ++i) {
    TxIn in;
    auto op = read_outpoint(r);
    auto script = r.bytes_with_len();
    auto seq = r.u32le();
    if (!op || !script || !seq) return std::nullopt;
    in.prevout = *op;
    if (script->size() == 97) {
      in.script_sig.signature = to_array<64>({script->data(), 64});
      in.script_sig.pubkey = to_array<33>({script->data() + 64, 33});
    } else if (!script->empty()) {
      return std::nullopt;  // only empty or (sig, pubkey) scripts exist here
    }
    in.sequence = *seq;
    tx.inputs.push_back(in);
  }
  auto nout = r.varint();
  if (!nout || *nout > 100000) return std::nullopt;
  tx.outputs.reserve(static_cast<std::size_t>(*nout));
  for (std::uint64_t i = 0; i < *nout; ++i) {
    TxOut out;
    auto value = r.i64le();
    auto script = r.bytes_with_len();
    if (!value || !script || script->size() != 20) return std::nullopt;
    out.value = *value;
    out.script_pubkey.dest.bytes = to_array<20>(*script);
    tx.outputs.push_back(out);
  }
  auto lock = r.u32le();
  if (!lock || !r.at_end()) return std::nullopt;
  tx.lock_time = *lock;
  return tx;
}

namespace {

/// Two independent FNV-1a passes over the serialization (different offset
/// bases, lengths mixed in) — a 128-bit validity check for the txid memo.
/// Not cryptographic, but an accidental collision is ~2^-64 per
/// revalidation and a stale hit requires colliding *both* streams at
/// equal length against the cached serialization of the same object.
std::array<std::uint64_t, 2> serialization_fingerprint(ByteSpan ser) noexcept {
  std::uint64_t a = 0xcbf29ce484222325ULL;           // FNV-1a offset basis
  std::uint64_t b = 0x6c62272e07bb0142ULL;           // FNV-0 of a different seed
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  for (const std::uint8_t byte : ser) {
    a = (a ^ byte) * kPrime;
    b = (b ^ (byte + 0x9eULL)) * kPrime;
  }
  return {a ^ ser.size(), b + ser.size()};
}

/// Striped locks for the txid memo: keyed by object address, so
/// concurrent txid() calls on the same const Transaction serialize while
/// distinct transactions (the common batch case) almost never collide.
std::mutex& memo_mutex_for(const void* p) noexcept {
  static std::mutex stripes[64];
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  return stripes[(addr >> 6) & 63];  // drop cache-line-aligned low bits
}

}  // namespace

Txid Transaction::txid() const {
  const Bytes ser = serialize();
  const auto fp = serialization_fingerprint(ser);
  std::lock_guard<std::mutex> lock(memo_mutex_for(this));
  if (txid_memo_.valid && txid_memo_.fp[0] == fp[0] && txid_memo_.fp[1] == fp[1]) {
    return txid_memo_.id;
  }
  txid_memo_.id = Txid::from_digest(crypto::sha256d(ser));
  txid_memo_.fp[0] = fp[0];
  txid_memo_.fp[1] = fp[1];
  txid_memo_.valid = true;
  return txid_memo_.id;
}

crypto::Sha256Digest Transaction::signature_hash(std::size_t input_index,
                                                 const ScriptPubKey& spent_script) const {
  Writer w;
  write_tx(w, *this, /*with_scripts=*/false, input_index, &spent_script);
  w.u32le(1);  // SIGHASH_ALL
  return crypto::sha256d(w.data());
}

bool sign_input(Transaction& tx, std::size_t input_index, const crypto::PrivateKey& key,
                const ScriptPubKey& spent_script) {
  const auto digest = tx.signature_hash(input_index, spent_script);
  bool r_odd = false;
  const auto sig = crypto::ecdsa_sign(key, digest, &r_odd);
  tx.inputs[input_index].script_sig.signature = sig.serialize();
  tx.inputs[input_index].script_sig.pubkey = crypto::PublicKey::derive(key).serialize();
  return r_odd;
}

bool verify_input(const Transaction& tx, std::size_t input_index,
                  const ScriptPubKey& spent_script) {
  if (input_index >= tx.inputs.size()) return false;
  const auto digest = tx.signature_hash(input_index, spent_script);
  return verify_script(tx.inputs[input_index].script_sig, spent_script, digest);
}

}  // namespace btcfast::btc
