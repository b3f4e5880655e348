"""Wire constants for the TLS 1.3 subset."""

# Record content types (RFC 8446 section 5.1).
CONTENT_ALERT = 21
CONTENT_HANDSHAKE = 22
CONTENT_APPLICATION_DATA = 23

# Record geometry.
RECORD_HEADER_SIZE = 5  # type (1) + legacy version (2) + length (2)
TAG_SIZE = 16
MAX_RECORD_PAYLOAD = 1 << 14  # 16 KB of plaintext per record (RFC 8446 §5.1)
# One byte of inner content type is always present in TLS 1.3 ciphertext.
INNER_TYPE_SIZE = 1
RECORD_OVERHEAD = RECORD_HEADER_SIZE + INNER_TYPE_SIZE + TAG_SIZE

LEGACY_VERSION = 0x0303  # TLS 1.2 on the wire, as TLS 1.3 mandates

# Handshake message types.
HS_CLIENT_HELLO = 1
HS_SERVER_HELLO = 2
HS_NEW_SESSION_TICKET = 4
HS_ENCRYPTED_EXTENSIONS = 8
HS_CERTIFICATE = 11
HS_CERTIFICATE_VERIFY = 15
HS_FINISHED = 20

# Cipher suites (only the paper's suite is implemented).
TLS_AES_128_GCM_SHA256 = 0x1301
TLS_AES_256_GCM_SHA384 = 0x1302  # advertised rejection only

# Signature schemes.
SIG_ECDSA_SECP256R1_SHA256 = 0x0403
SIG_RSA_PKCS1_SHA256 = 0x0401

# Named groups.
GROUP_SECP256R1 = 0x0017

# Extension-like identifiers for our compact ClientHello encoding.
EXT_KEY_SHARE = 51
EXT_PRE_SHARED_KEY = 41
EXT_SMT_TICKET = 0xFE5A  # the paper's new extension indicating SMT-ticket use

KEY_LEN = 16  # AES-128
IV_LEN = 12
