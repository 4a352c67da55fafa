"""Storage engine: catalogues, the tagging relation, and derived indexes."""

from .items import Item, ItemStore
from .users import User, UserStore
from .tagging import TaggingAction, TaggingStore
from .inverted_index import InvertedIndex, Posting, PostingList, PostingListCursor
from .endorser_index import EndorserIndex, TagEndorsers
from .social_index import SocialIndex
from .dataset import Dataset
from .arena import Arena, build_arena, load_dataset_from_arena
from .statistics import DatasetStatistics, compute_dataset_statistics, graph_statistics_row
from .updates import DatasetUpdater, UpdateSummary, replay_trace
from .wal import (
    WriteAheadLog,
    WalRecord,
    WalScan,
    scan_wal,
    truncate_torn_tail,
)
from .durable import DurableStore, RecoveryReport, read_manifest, write_manifest

__all__ = [
    "Item",
    "ItemStore",
    "User",
    "UserStore",
    "TaggingAction",
    "TaggingStore",
    "InvertedIndex",
    "Posting",
    "PostingList",
    "PostingListCursor",
    "EndorserIndex",
    "TagEndorsers",
    "SocialIndex",
    "Dataset",
    "Arena",
    "build_arena",
    "load_dataset_from_arena",
    "DatasetStatistics",
    "compute_dataset_statistics",
    "graph_statistics_row",
    "DatasetUpdater",
    "UpdateSummary",
    "replay_trace",
    "WriteAheadLog",
    "WalRecord",
    "WalScan",
    "scan_wal",
    "truncate_torn_tail",
    "DurableStore",
    "RecoveryReport",
    "read_manifest",
    "write_manifest",
]
